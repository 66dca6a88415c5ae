// Command swbench is swcam's canonical two-clock benchmark. It runs one
// named workload through the public driver calls (ParallelJob.RunChecked,
// ResilientJob.Run, Model.Step) on one pinned configuration, times
// cycles of two dynamics steps, checks the outputs against recorded
// reference hashes, and prints the end-to-end metrics (host time and
// modeled SW26010 time) or, with -trace 1, the per-layer metrics.
// The last line of standard output is the result as one JSON object.
//
//	go run ./swbench -workload athread-dyn -seed 1 -seconds 20 -trace 0
//	go run ./swbench -workload intel-moist -seed 1 -seconds 20 -trace 1
//	go run ./swbench -compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"swcam/internal/core"
	"swcam/internal/obs"
)

// schema versions the result records compare mode reads.
const schema = "swbench/1"

// result is the JSON object the last line of standard output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it, for compare mode.
type record struct {
	Schema   string `json:"schema"`
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
	// AsMeasured holds the un-normalized and wall-clock metrics of a
	// -trace 0 run.
	AsMeasured map[string]metricValue `json:"as_measured,omitempty"`
}

func main() {
	wl := flag.String("workload", "", "workload to run: athread-dyn, intel-moist, ladder-flip or serial-model")
	seed := flag.Int64("seed", 1, "workload seed: drives the IC perturbation and the flip schedule")
	seconds := flag.Int("seconds", 20, "seconds of timed cycles")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and layer passes")
	out := flag.String("out", "", "also append the run as a JSON line to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two files of -out records: parent first, change second")
	recordPath := flag.String("record-refs", "", "record the reference hash table to this file and exit")
	flag.Parse()

	switch {
	case *recordPath != "":
		if err := recordRefs(*recordPath); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			os.Exit(1)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "swbench: -compare takes two files: parent change")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, err := findWorkload(*wl)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(2)
	}
	res, raw, err := run(os.Stdout, w, inputSet(*seed), time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Schema: schema, Config: configKey(), Workload: w.name,
			Seed: *seed, Trace: *trace, Result: res, AsMeasured: raw}); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run measures workload w on input set seed and prints its metrics by
// name and unit. It returns the result and, for an end-to-end run, the
// as-measured metrics.
func run(out *os.File, w workload, seed int64, budget time.Duration, traced bool) (result, map[string]metricValue, error) {
	want, err := referenceHash(w.name, seed)
	if err != nil {
		return result{}, nil, err
	}
	var setups []float64
	var r runner
	for i := 0; i < setupRepeats; i++ {
		r = nil
		runtime.GC()
		var d time.Duration
		if r, d, err = setup(w, seed); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Fprintf(out, "swbench %s input set %d (held-out set %d): %s\n", w.name, seed, heldOutSet, configKey())
	if w.ladder {
		fmt.Fprintf(out, "flips per segment: %s\n", flipSpec(seed))
	}

	var ms, raw *metricSet
	var m measurement
	if traced {
		ms, m, err = tracedRun(out, w, seed, r, budget, want)
	} else {
		ms, raw, m, err = endToEndRun(w, seed, r, budget, want, setups)
	}
	if err != nil {
		return result{}, nil, err
	}
	runtime.KeepAlive(r)

	correct := m.failed == 0
	for _, f := range m.failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	if w.ladder {
		// The end-to-end SDC guarantee: after recovering from every
		// injected flip, the state equals a fault-free replica's.
		h, err := faultFreeHash(w, seed)
		if err != nil {
			return result{}, nil, fmt.Errorf("fault-free replica: %w", err)
		}
		for i, got := range m.hashes {
			if got != h {
				correct = false
				fmt.Fprintf(out, "FAIL segment %d: hash %016x, fault-free replica %016x\n", i, got, h)
			}
		}
	}
	printMetrics(out, ms)
	var rawJSON map[string]metricValue
	if raw != nil {
		printMetrics(out, raw)
		if rawJSON, err = raw.json(); err != nil {
			return result{}, nil, err
		}
	}
	fmt.Fprintf(out, "failed_cycle_frac = %.6g ratio (%d of %d cycles failed)\n",
		float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	metrics, err := ms.json()
	if err != nil {
		return result{}, nil, err
	}
	return result{Correct: correct, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, rawJSON, nil
}

// minSegments gives every run at least 120 timed cycles, so at least
// 12 samples lie beyond the 90th percentile.
const minSegments = 5

// endToEndRun measures the end-to-end metrics with tracing off, and
// the as-measured metrics beside them.
func endToEndRun(w workload, seed int64, r runner, budget time.Duration, want uint64,
	setups []float64) (ms, raw *metricSet, m measurement, err error) {
	m = timedLoop(r, budget, minSegments, &want, nil)
	ms, raw = newMetricSet(endToEnd), newMetricSet(asMeasured)
	n := len(m.cycleNs)
	cpu := sortedMs(m.cpuNs)
	chsy := sum(m.cpuNs) / 1e9 / 3600 / simYears(n)
	k := m.speedFactor()
	ms.set("chsy_norm", chsy*k)
	ms.set("cycle_cpu_ms_p50_norm", quantile(cpu, 0.5)*k)
	ms.set("cycle_cpu_ms_p90_norm", quantile(cpu, 0.9)*k)
	// Median over segments: mpirt's buffer freelist hits depend on how
	// the ranks interleave, so a few segments allocate far more or less
	// than the rest.
	ms.set("allocs_per_cycle", median(m.segAllocs))
	ms.set("alloc_mb_per_cycle", median(m.segAllocMB))
	ms.set("heap_mb", liveHeapMB())
	ms.set("setup_s", median(setups)*k)
	cyc := sortedMs(m.cycleNs)
	raw.set("chsy", chsy)
	raw.set("cycle_cpu_ms_p50", quantile(cpu, 0.5))
	raw.set("cycle_cpu_ms_p90", quantile(cpu, 0.9))
	raw.set("calibration_ms", median(m.calMs))
	raw.set("sypd", obs.SYPD(float64(n*stepsPerCycle)*dycoreConfig().Dt, sum(m.cycleNs)/1e9))
	raw.set("cycle_ms_p50", quantile(cyc, 0.5))
	raw.set("cycle_ms_p90", quantile(cyc, 0.9))
	b, nranks := execLayout(w)
	f, err := newPassFixture(seed, nranks)
	if err != nil {
		return nil, nil, m, err
	}
	step, err := modeledStepKcycles(f, execPass(f, 0, b, 0))
	if err != nil {
		return nil, nil, m, err
	}
	ms.set("modeled_step_kcycles", step)
	return ms, raw, m, nil
}

// printMetrics prints every metric by name and unit, with the reason
// beside any that is n/a on this workload.
func printMetrics(out *os.File, ms *metricSet) {
	for _, d := range ms.defs {
		line := fmt.Sprintf("%s = %.6g %s", d.name, ms.values[d.name], d.unit)
		if why, ok := ms.na[d.name]; ok {
			line += " (n/a: " + why + ")"
		}
		fmt.Fprintln(out, line)
	}
}

// faultFreeHash runs one segment of w's configuration without faults,
// untimed, and returns its final hash.
func faultFreeHash(w workload, seed int64) (uint64, error) {
	ff := w
	ff.ladder = false
	job, err := newJob(ff)
	if err != nil {
		return 0, err
	}
	job.EnableIntegrity(1)
	ic, err := initialState(seed)
	if err != nil {
		return 0, err
	}
	local := job.Scatter(ic)
	if _, err := job.RunChecked(local, cyclesPerSegment*stepsPerCycle); err != nil {
		return 0, err
	}
	return core.StateFNV(job.Gather(local)), nil
}

// tracedRun measures the per-layer metrics: an untraced phase (the
// base of trace.overhead_pct), a traced phase with the program's probe
// attached (counters and critical path), then the layer passes.
func tracedRun(out *os.File, w workload, seed int64, r runner, budget time.Duration,
	want uint64) (*metricSet, measurement, error) {
	ms := newMetricSet(perLayer)
	phase := budget * 2 / 5
	base := timedLoop(r, phase, 2, &want, nil)

	tr := obs.NewTracer()
	probe := &obs.Probe{Tracer: tr, Reg: obs.NewRegistry(), Kernels: obs.NewKernelTable()}
	var s0 resilientTotals
	jr, isJob := r.(*jobRunner)
	if isJob {
		s0 = totals(jr)
	}
	r.instrument(probe)
	m := timedLoop(r, phase, 2, &want, tr)
	r.instrument(nil)

	all := base
	all.attempted += m.attempted
	all.failed += m.failed
	all.failures = append(all.failures, m.failures...)
	all.hashes = append(all.hashes, m.hashes...)

	events, err := readTrace(tr)
	if err != nil {
		return nil, all, err
	}
	nranks := 1
	if isJob {
		nranks = cfgRanks
	}
	crit, err := attribute(events, nranks)
	if err != nil {
		return nil, all, err
	}
	reg := probe.Reg
	setCritical(ms, crit, reg.CounterValue("halo.wait.ns"))
	// On the CPU clock, like the end-to-end metrics: recording spans is
	// CPU work, and steal would swamp it on the wall clock.
	p50 := quantile(sortedMs(base.cpuNs), 0.5)
	ms.set("trace.overhead_pct", 100*(quantile(sortedMs(m.cpuNs), 0.5)-p50)/p50)
	fmt.Fprintf(out, "traced %d cycles (untraced base %d); critical path: %d spans parsed\n",
		len(m.cycleNs), len(base.cycleNs), len(events))

	steps := float64(len(m.cycleNs) * stepsPerCycle)
	cycles := float64(len(m.cycleNs))
	segments := float64(m.segments)
	perStep := func(name, counter string) { ms.set(name, float64(reg.CounterValue(counter))/steps) }
	if isJob {
		perStep("halo.msgs_per_step", "halo.msgs")
		perStep("halo.wire_bytes_per_step", "halo.wire.bytes")
		haloNs := float64(reg.CounterValue("halo.ns"))
		ms.set("halo.wait_frac", float64(reg.CounterValue("halo.wait.ns"))/haloNs)
		if reg.CounterValue("halo.overlap.windows") > 0 {
			ms.set("halo.overlap_ratio", 1-float64(reg.CounterValue("halo.wait.ns"))/haloNs)
		} else {
			ms.notApplicable("halo.overlap_ratio", "no exchange ran an inner-compute window")
		}
		perStep("mpirt.msgs_per_step", "mpirt.send.msgs")
		perStep("mpirt.bytes_per_step", "mpirt.send.bytes")
		perStep("mpirt.coll_ops_per_step", "mpirt.coll.ops")
	} else {
		for _, n := range []string{"halo.msgs_per_step", "halo.wire_bytes_per_step", "halo.wait_frac",
			"halo.overlap_ratio", "mpirt.msgs_per_step", "mpirt.bytes_per_step", "mpirt.coll_ops_per_step"} {
			ms.notApplicable(n, "one rank: no exchange and no message runtime")
		}
	}
	if w.moist {
		perStep("physics.columns_per_step", "physics.columns")
		busy := float64(reg.CounterValue("core.step.ns"))
		if !isJob {
			// The serial Model records no core.step counter: its step
			// is the whole traced cycle.
			for _, ns := range m.cycleNs {
				busy += float64(ns)
			}
		}
		ms.set("physics.busy_frac", float64(reg.CounterValue("physics.ns"))/busy)
	} else {
		ms.notApplicable("physics.columns_per_step", "adiabatic: no physics")
		ms.notApplicable("physics.busy_frac", "adiabatic: no physics")
	}
	if w.ladder {
		d := totals(jr).minus(s0)
		ms.set("core.checkpoints_per_cycle", float64(d.checkpoints)/cycles)
		ms.set("core.recovery_ms_per_cycle", float64(d.recoveryNs)/1e6/cycles)
		ms.set("core.buddy_mb_per_cycle", float64(d.buddyBytes)/1e6/cycles)
		ms.set("core.rollbacks", float64(d.rollbacks)/segments)
		ms.set("core.poisoned", float64(d.poisoned)/segments)
		inj, det := flipCounts(reg)
		ms.set("integrity.flips_injected", float64(inj)/segments)
		ms.set("integrity.detected", float64(det)/segments)
		if inj > 0 {
			ms.set("integrity.detect_ratio", float64(det)/float64(inj))
		} else {
			ms.notApplicable("integrity.detect_ratio", "no flip fired")
		}
		ms.set("integrity.scrub_frac", float64(reg.CounterValue("integrity.scrub.ns"))/
			float64(reg.CounterValue("core.step.ns")))
	} else {
		for _, n := range []string{"core.checkpoints_per_cycle", "core.recovery_ms_per_cycle",
			"core.buddy_mb_per_cycle", "core.rollbacks", "core.poisoned"} {
			ms.notApplicable(n, "no ResilientJob supervisor")
		}
		for _, n := range []string{"integrity.flips_injected", "integrity.detected",
			"integrity.detect_ratio", "integrity.scrub_frac"} {
			ms.notApplicable(n, "integrity off")
		}
	}

	if err := layerPasses(ms, w, seed); err != nil {
		return nil, all, err
	}
	return ms, all, nil
}

// layerPasses fills the metrics the direct module calls measure.
func layerPasses(ms *metricSet, w workload, seed int64) error {
	b, nranks := execLayout(w)
	f, err := newPassFixture(seed, nranks)
	if err != nil {
		return err
	}
	execMetrics(ms, execPass(f, 0, b, 15), b, true)
	// The other passes run on the common two-rank partition whatever
	// the workload, so their rows read alike on every workload.
	f2 := f
	if nranks != cfgRanks {
		if f2, err = newPassFixture(seed, cfgRanks); err != nil {
			return err
		}
	}
	swPass(ms)
	if err := haloPass(ms, f2); err != nil {
		return err
	}
	if err := mpirtPass(ms, f2); err != nil {
		return err
	}
	physicsPass(ms, f2)
	if err := dycorePass(ms, f2); err != nil {
		return err
	}
	return snapshotPass(ms, f2)
}

// resilientTotals are the supervisor counts a traced phase diffs.
type resilientTotals struct {
	checkpoints, rollbacks, poisoned int
	recoveryNs, buddyBytes           int64
}

func totals(jr *jobRunner) resilientTotals {
	s := jr.stats
	return resilientTotals{checkpoints: s.Checkpoints, rollbacks: s.Rollbacks, poisoned: s.Poisoned,
		recoveryNs: s.RecoveryNs, buddyBytes: s.BuddyBytes}
}

func (a resilientTotals) minus(b resilientTotals) resilientTotals {
	return resilientTotals{a.checkpoints - b.checkpoints, a.rollbacks - b.rollbacks, a.poisoned - b.poisoned,
		a.recoveryNs - b.recoveryNs, a.buddyBytes - b.buddyBytes}
}
