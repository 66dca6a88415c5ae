package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Compare mode diffs a parent's runs against a change's runs, made
// with the same benchmark code: one block per workload, each side's
// median and quartiles per end-to-end metric (then the as-measured
// ones), a verdict against the metric's bound, and the per-layer
// metrics that moved alongside.

// loadRecords reads a file of -out records.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) (exclusive method) computes them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// side is one commit's runs of one workload, split by trace mode.
type side struct {
	e2e, layer []record
	seeds      map[int64]int
}

func group(recs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		s := out[r.Workload]
		if s == nil {
			s = &side{seeds: map[int64]int{}}
			out[r.Workload] = s
		}
		if r.Trace == 1 {
			s.layer = append(s.layer, r)
		} else {
			s.e2e = append(s.e2e, r)
		}
		s.seeds[r.Seed]++
	}
	return out
}

// values collects a metric over runs, from the result or from the
// as-measured metrics kept beside it.
func values(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		} else if m, ok := r.AsMeasured[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareFiles prints the comparison and reports false when any
// metric regressed beyond its bound or any run was incorrect. It
// refuses files whose schema, configuration or seeds differ.
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := loadRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return false, err
	}
	return compareRecords(w, parent, change)
}

func compareRecords(w io.Writer, parent, change []record) (bool, error) {
	for _, r := range append(append([]record(nil), parent...), change...) {
		if r.Schema != schema {
			return false, fmt.Errorf("record schema %q, this benchmark reads %q", r.Schema, schema)
		}
		if r.Config != parent[0].Config {
			return false, fmt.Errorf("configurations differ: %q vs %q", r.Config, parent[0].Config)
		}
	}
	pg, cg := group(parent), group(change)
	names := make([]string, 0, len(pg))
	for name, ps := range pg {
		cs := cg[name]
		if cs == nil {
			return false, fmt.Errorf("workload %s has no runs in the change's file", name)
		}
		if fmt.Sprint(ps.seeds) != fmt.Sprint(cs.seeds) {
			return false, fmt.Errorf("workload %s: seeds differ: parent %v, change %v", name, ps.seeds, cs.seeds)
		}
		names = append(names, name)
	}
	for name := range cg {
		if pg[name] == nil {
			return false, fmt.Errorf("workload %s has no runs in the parent's file", name)
		}
	}
	sort.Strings(names)

	ok := true
	for _, name := range names {
		ps, cs := pg[name], cg[name]
		for _, r := range append(append([]record(nil), ps.e2e...), append(ps.layer, append(cs.e2e, cs.layer...)...)...) {
			if !r.Result.Correct || r.Result.Failed > 0 {
				ok = false
				fmt.Fprintf(w, "%s seed %d: run incorrect (%d of %d cycles failed)\n",
					name, r.Seed, r.Result.Failed, r.Result.Attempted)
			}
		}
		fmt.Fprintf(w, "== %s (%d parent runs, %d change runs)\n", name, len(ps.e2e), len(cs.e2e))
		fmt.Fprintf(w, "%-20s %-14s %31s %31s %8s  %s\n", "metric", "unit",
			"parent q1 / median / q3", "change q1 / median / q3", "delta", "verdict")
		regressed := false
		for _, d := range append(append([]metricDef(nil), endToEnd...), asMeasured...) {
			pv, cv := values(ps.e2e, d.name), values(cs.e2e, d.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			verdict := "as measured, not judged"
			if d.bound > 0 {
				verdict = judge(d, pv, cv)
			}
			if verdict == "REGRESSION" {
				ok, regressed = false, true
			}
			p1, pm, p3 := quartiles(pv)
			c1, cm, c3 := quartiles(cv)
			fmt.Fprintf(w, "%-20s %-14s %9.4g /%9.4g /%9.4g %9.4g /%9.4g /%9.4g %+7.1f%%  %s\n",
				d.name, d.unit, p1, pm, p3, c1, cm, c3, 100*(cm-pm)/pm, verdict)
		}
		moved := movedLayers(ps.layer, cs.layer)
		switch {
		case len(ps.layer) == 0 || len(cs.layer) == 0:
			fmt.Fprintln(w, "per-layer: no traced runs on both sides")
		case len(moved) == 0:
			fmt.Fprintln(w, "per-layer: nothing moved beyond its run-to-run spread")
		default:
			if regressed {
				fmt.Fprint(w, "moved alongside the regression: ")
			} else {
				fmt.Fprint(w, "per-layer moved: ")
			}
			fmt.Fprintln(w, strings.Join(moved, ", "))
		}
	}
	return ok, nil
}

// worse returns how much worse x is than base for the metric's
// direction, as a share of base.
func worse(d metricDef, base, x float64) float64 {
	if d.better == "higher" {
		return (base - x) / base
	}
	return (x - base) / base
}

// judge applies the benchmark's rule: a change whose median is worse
// than the parent's by more than the bound regressed; when either
// side's spread (IQR over median) exceeds the bound the verdict is
// unresolved, unless every change run beats every parent run.
func judge(d metricDef, pv, cv []float64) string {
	p1, pm, p3 := quartiles(pv)
	c1, cm, c3 := quartiles(cv)
	if (p3-p1)/math.Abs(pm) > d.bound || (c3-c1)/math.Abs(cm) > d.bound {
		allBetter := true
		for _, c := range cv {
			for _, p := range pv {
				if worse(d, p, c) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better (every run)"
		}
		return "unresolved (spread beyond bound)"
	}
	if worse(d, pm, cm) > d.bound {
		return "REGRESSION"
	}
	return "ok"
}

// movedLayers names the per-layer metrics whose median moved by more
// than both sides' run-to-run spread; a count moves on any change.
func movedLayers(parent, change []record) []string {
	var moved []string
	for _, d := range perLayer {
		pv, cv := values(parent, d.name), values(change, d.name)
		if len(pv) == 0 || len(cv) == 0 {
			continue
		}
		p1, pm, p3 := quartiles(pv)
		c1, cm, c3 := quartiles(cv)
		if cm != pm && math.Abs(cm-pm) > math.Max(p3-p1, c3-c1) {
			pct := ""
			if pm != 0 {
				pct = fmt.Sprintf(" %+.1f%%", 100*(cm-pm)/math.Abs(pm))
			}
			moved = append(moved, d.name+pct)
		}
	}
	return moved
}
