package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"swcam/internal/obs"
)

// benchPid is the trace process of the benchmark's own cycle spans,
// apart from the ranks' pids 0..n-1.
const benchPid = -1

// traceEvent is the part of a Chrome trace event the attribution reads.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs since the tracer's origin
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// layerOf maps a span name to the critical-path bucket its self time
// counts in. Spans of no layer (core.step, the cycle itself) leave their
// self time unattributed.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "exec."):
		return "exec"
	case strings.HasPrefix(name, "halo."):
		return "halo"
	case strings.HasPrefix(name, "mpirt."):
		return "coll"
	case name == "core.physics":
		return "physics"
	case name == "core.dynamics":
		return "dycore"
	case name == "core.checkpoint", name == "core.rollback", name == "core.localized",
		name == "core.respawn", name == "core.shrink":
		return "ckpt"
	}
	return ""
}

// critLayers are the attributed buckets, in report order.
var critLayers = []string{"exec", "halo", "coll", "physics", "dycore", "ckpt"}

// critical is the traced cycles' critical-path attribution: per-cycle
// means of each layer's self time on the slowest rank, plus the
// unattributed rest, which together sum to the mean cycle wall time.
type critical struct {
	cycles       int
	cycleMs      float64
	layerMs      map[string]float64
	unattributed float64
	haloSelfAll  float64 // ms of halo self time over every rank and cycle
}

// readTrace exports the tracer's spans and parses them back, the same
// document a user would load in chrome://tracing.
func readTrace(t *obs.Tracer) ([]traceEvent, error) {
	var buf bytes.Buffer
	if err := t.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	return doc.TraceEvents, nil
}

// selfTimes splits the window [lo, hi) of one timeline of properly
// nested spans into each span's self time (its duration minus the part
// its children cover), summed per layer; time under no span, or under
// spans of no layer, is returned as rest.
func selfTimes(spans []traceEvent, lo, hi float64) (perLayer map[string]float64, rest float64) {
	type iv struct {
		start, end float64
		layer      string
		child      float64
	}
	ivs := make([]*iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Ts, s.Ts+s.Dur
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, &iv{start: a, end: b, layer: layerOf(s.Name)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end > ivs[j].end
	})
	perLayer = map[string]float64{}
	covered := 0.0
	var stack []*iv
	for _, v := range ivs {
		for len(stack) > 0 && stack[len(stack)-1].end <= v.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			if v.end > p.end {
				v.end = p.end // timestamp rounding: clip a child to its parent
			}
			p.child += v.end - v.start
		} else {
			covered += v.end - v.start
		}
		stack = append(stack, v)
	}
	for _, v := range ivs {
		self := v.end - v.start - v.child
		if v.layer == "" {
			rest += self
		} else {
			perLayer[v.layer] += self
		}
	}
	rest += (hi - lo) - covered
	return perLayer, rest
}

// attribute computes the critical path of every bench.cycle span: the
// rank whose core.step spans cover the most of the cycle is the one
// the cycle waited for; its rank-thread spans, plus the supervisor's
// checkpoint spans (pid 0, between world runs), are split into
// per-layer self time. Spans on other threads of a rank (per-tile
// worker spans) run concurrently with the rank thread and are skipped.
func attribute(events []traceEvent, nranks int) (critical, error) {
	c := critical{layerMs: map[string]float64{}}
	byPid := map[int][]traceEvent{}
	var cycles []traceEvent
	for _, e := range events {
		if e.Ph != "X" || e.Tid != 0 {
			continue
		}
		if e.Pid == benchPid {
			if e.Name == "bench.cycle" {
				cycles = append(cycles, e)
			}
			continue
		}
		byPid[e.Pid] = append(byPid[e.Pid], e)
	}
	if len(cycles) == 0 {
		return c, fmt.Errorf("trace holds no bench.cycle spans")
	}
	var super []traceEvent
	for _, e := range byPid[0] {
		if layerOf(e.Name) == "ckpt" {
			super = append(super, e)
		}
	}
	// Every span of a cycle starts inside it: the driver call is the
	// cycle, and the world and the supervisor live inside the call.
	within := func(es []traceEvent, lo, hi float64) []traceEvent {
		i := sort.Search(len(es), func(i int) bool { return es[i].Ts >= lo })
		j := sort.Search(len(es), func(j int) bool { return es[j].Ts >= hi })
		return es[i:j]
	}
	for p := range byPid {
		sort.Slice(byPid[p], func(i, j int) bool { return byPid[p][i].Ts < byPid[p][j].Ts })
	}
	var tot float64
	for _, cy := range cycles {
		lo, hi := cy.Ts, cy.Ts+cy.Dur
		crit, best := 0, -1.0
		for r := 0; r < nranks; r++ {
			step := 0.0
			for _, e := range within(byPid[r], lo, hi) {
				if e.Name == "core.step" {
					step += e.Dur
				}
			}
			if step > best {
				crit, best = r, step
			}
		}
		spans := within(byPid[crit], lo, hi)
		if crit != 0 {
			spans = append(append([]traceEvent(nil), spans...), within(super, lo, hi)...)
		}
		pl, rest := selfTimes(spans, lo, hi)
		for k, v := range pl {
			c.layerMs[k] += v / 1e3
		}
		c.unattributed += rest / 1e3
		tot += cy.Dur / 1e3
		for r := 0; r < nranks; r++ {
			all, _ := selfTimes(within(byPid[r], lo, hi), lo, hi)
			c.haloSelfAll += all["halo"] / 1e3
		}
	}
	n := float64(len(cycles))
	c.cycles = len(cycles)
	c.cycleMs = tot / n
	for k := range c.layerMs {
		c.layerMs[k] /= n
	}
	c.unattributed /= n
	return c, nil
}

// setCritical fills the critical.* rows. haloWaitNs is the registry's
// halo.wait.ns over the traced cycles: the share of all ranks' halo self
// time spent blocked in receives, applied to the critical rank's halo
// self time.
func setCritical(ms *metricSet, c critical, haloWaitNs int64) {
	ms.set("critical.cycle_ms", c.cycleMs)
	for _, l := range critLayers {
		ms.set("critical."+l+"_ms", c.layerMs[l])
	}
	ms.set("critical.unattributed_ms", c.unattributed)
	wait := 0.0
	if c.haloSelfAll > 0 {
		share := float64(haloWaitNs) / 1e6 / c.haloSelfAll
		if share > 1 {
			share = 1
		}
		wait = c.layerMs["halo"] * share
	}
	ms.set("critical.halo_wait_ms", wait)
}
