package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/obs"
)

// The exec pass must measure the work the driver does: its per-kernel
// Costs, summed over one cycle's launches on every rank, equal the
// RunStats.Cost RunChecked returns for the same cycle.
func TestExecPassMatchesRunChecked(t *testing.T) {
	for _, name := range []string{"athread-dyn", "intel-moist"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := newPassFixture(3, cfgRanks)
		if err != nil {
			t.Fatal(err)
		}
		pass := exec.Cost{Backend: w.backend}
		for r := 0; r < cfgRanks; r++ {
			pass.Add(cycleCost(execPass(f, r, w.backend, 0), w.backend))
		}
		job, err := newJob(w)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := job.RunChecked(job.Scatter(f.ic), stepsPerCycle)
		if err != nil {
			t.Fatal(err)
		}
		got := stats.Cost
		if got.FlopsScalar != pass.FlopsScalar || got.FlopsVector != pass.FlopsVector ||
			got.MemBytes != pass.MemBytes || got.DMAOps != pass.DMAOps ||
			got.RegMsgs != pass.RegMsgs || got.Launches != pass.Launches {
			t.Errorf("%s: exec pass cost %+v, RunChecked cost %+v", name, pass, got)
		}
	}
}

// Every metric name is a plain identifier, used once, and the
// repository's BENCHMARK.json declares exactly the metrics, units and
// bounds the benchmark reports.
func TestMetricNamesAndDeclaration(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or duplicate metric name %q", d.name)
		}
		seen[d.name] = true
	}
	for _, n := range countMetrics {
		if !seen[n] {
			t.Errorf("count metric %q is not declared", n)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, d := range decl.Workloads {
		if i < len(workloads) && d.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, benchmark %q", i, d.Name, workloads[i].name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark reports %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range decl.EndToEnd {
		m := endToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end_to_end %d: declared %+v, benchmark %+v", i, d, m)
		}
	}
	for i, d := range decl.PerLayer {
		m := perLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer %d: declared %+v, benchmark %+v", i, d, m)
		}
	}
}

// countRun measures the count metrics of one short traced segment of
// intel-moist plus the athread-dyn exec pass.
func countRun(t *testing.T) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, name := range []string{"athread-dyn", "intel-moist"} {
		w, _ := findWorkload(name)
		b, nranks := execLayout(w)
		f, err := newPassFixture(5, nranks)
		if err != nil {
			t.Fatal(err)
		}
		runs := execPass(f, 0, b, 0)
		ms := newMetricSet(perLayer)
		execMetrics(ms, runs, b, false)
		for k, v := range ms.values {
			out[name+"/"+k] = v
		}
		step, err := modeledStepKcycles(f, runs)
		if err != nil {
			t.Fatal(err)
		}
		out[name+"/modeled_step_kcycles"] = step
	}
	w, _ := findWorkload("intel-moist")
	r, err := newRunner(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := &obs.Probe{Reg: obs.NewRegistry()}
	r.instrument(p)
	m := timedLoop(r, 0, 1, nil, nil)
	if m.failed > 0 {
		t.Fatal(m.failures)
	}
	out["halo.msgs_per_step"] = float64(p.Reg.CounterValue("halo.msgs")) / float64(len(m.cycleNs)*stepsPerCycle)
	return out
}

// Count metrics are counts, not timings: they repeat exactly.
func TestCountMetricsRepeatExactly(t *testing.T) {
	a, b := countRun(t), countRun(t)
	if len(a) == 0 {
		t.Fatal("no counts measured")
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v then %v", k, v, b[k])
		}
		// Intel launches no CPE region and touches no LDM; every backend
		// does flops and moves bytes.
		if v == 0 && (strings.Contains(k, "flops") || strings.Contains(k, "bytes_per") ||
			strings.Contains(k, "modeled") || strings.Contains(k, "msgs_per")) {
			t.Errorf("%s is 0", k)
		}
	}
}

// corrupting wraps a runner and flips one mantissa bit of the final
// state it reports.
type corrupting struct{ runner }

func (c corrupting) final() *dycore.State {
	g := c.runner.final().Clone()
	g.T[0][0] = math.Float64frombits(math.Float64bits(g.T[0][0]) ^ 1)
	return g
}

// A corrupted final state fails its segment's check.
func TestCorruptedFinalStateFails(t *testing.T) {
	w, _ := findWorkload("intel-moist")
	want, err := referenceHash(w.name, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m := timedLoop(r, 0, 1, &want, nil); m.failed != 0 {
		t.Fatalf("clean segment failed: %v", m.failures)
	}
	m := timedLoop(corrupting{r}, 0, 1, &want, nil)
	if m.failed != cyclesPerSegment || len(m.failures) != 1 {
		t.Fatalf("corrupted segment: %d failed cycles, failures %v", m.failed, m.failures)
	}
}

// An injected flip without a detection fails the ladder check.
func TestUndetectedFlipFails(t *testing.T) {
	if err := checkFlips(4, 4); err != nil {
		t.Fatal(err)
	}
	if err := checkFlips(4, 3); err == nil {
		t.Fatal("3 detections of 4 flips passed")
	}
}

// The critical-path parts plus the unattributed rest sum to the cycle.
func TestCriticalPathSumsToCycle(t *testing.T) {
	ev := func(name string, pid int, ts, dur float64) traceEvent {
		return traceEvent{Name: name, Ph: "X", Pid: pid, Ts: ts, Dur: dur}
	}
	events := []traceEvent{
		ev("bench.cycle", benchPid, 0, 100),
		ev("core.step", 0, 5, 40), ev("exec.compute_and_apply_rhs", 0, 6, 10),
		ev("halo.dss_overlap", 0, 16, 20), ev("exec.euler_step.inner", 0, 18, 5),
		ev("mpirt.allreduce", 0, 40, 3),
		ev("core.step", 1, 5, 60), ev("exec.compute_and_apply_rhs", 1, 6, 30),
		ev("core.physics", 1, 40, 20), ev("mpirt.bcast", 1, 55, 2),
		ev("core.checkpoint", 0, 70, 10),
	}
	c, err := attribute(events, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := c.unattributed
	for _, v := range c.layerMs {
		sum += v
	}
	if math.Abs(sum-c.cycleMs) > 1e-12 || c.cycleMs != 0.1 {
		t.Fatalf("parts sum to %v ms, cycle %v ms", sum, c.cycleMs)
	}
	// Rank 1 is slower; its physics self time excludes the nested bcast,
	// and the supervisor's checkpoint counts on the critical path.
	if c.layerMs["physics"] != 0.018 || c.layerMs["coll"] != 0.002 || c.layerMs["ckpt"] != 0.01 ||
		c.layerMs["exec"] != 0.03 {
		t.Fatalf("attribution %v", c.layerMs)
	}
}

func rec(wl string, seed int64, trace int, metrics map[string]float64) record {
	m := map[string]metricValue{}
	for k, v := range metrics {
		m[k] = metricValue{Value: v}
	}
	return record{Schema: schema, Config: configKey(), Workload: wl, Seed: seed, Trace: trace,
		Result: result{Correct: true, Attempted: 1, Metrics: m}}
}

// Compare mode refuses mismatched files, flags a regression beyond the
// bound, marks a noisy metric unresolved, and names moved layers.
func TestCompare(t *testing.T) {
	var parent, change []record
	for s := int64(1); s <= 5; s++ {
		noise := float64(s)
		parent = append(parent, rec("intel-moist", s, 0, map[string]float64{
			"cycle_cpu_ms_p50_norm": 30 + 0.1*noise, "cycle_cpu_ms_p90_norm": 10 * noise, "chsy_norm": 1}))
		change = append(change, rec("intel-moist", s, 0, map[string]float64{
			"cycle_cpu_ms_p50_norm": 40 + 0.1*noise, "cycle_cpu_ms_p90_norm": 10 * noise, "chsy_norm": 1}))
		parent = append(parent, rec("intel-moist", s, 1, map[string]float64{"exec.rhs_ms": 1, "halo.msgs_per_step": 12}))
		change = append(change, rec("intel-moist", s, 1, map[string]float64{"exec.rhs_ms": 2, "halo.msgs_per_step": 12}))
	}
	var buf bytes.Buffer
	ok, err := compareRecords(&buf, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if ok || !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "unresolved") ||
		!strings.Contains(out, "exec.rhs_ms") || strings.Contains(out, "halo.msgs_per_step +") {
		t.Fatalf("ok=%v\n%s", ok, out)
	}
	bad := append([]record(nil), change...)
	bad[0].Config = "ne8"
	if _, err := compareRecords(&buf, parent, bad); err == nil {
		t.Fatal("mismatched configurations compared")
	}
	bad = append([]record(nil), change...)
	bad[0].Seed = 99
	if _, err := compareRecords(&buf, parent, bad); err == nil {
		t.Fatal("mismatched seeds compared")
	}
}

// quartiles matches Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, med, q3)
	}
}
