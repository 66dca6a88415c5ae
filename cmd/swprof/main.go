// Command swprof is the benchmark-regression profiler: it runs the
// distributed dynamics under every execution backend on one
// configuration, collects the unified observability data (per-kernel
// wall time and architectural events, halo and runtime counters), and
// appends a BENCH_<n>.json data point — the perf-trajectory record CI's
// bench-smoke job validates.
//
//	swprof -ne 2 -nlev 4 -steps 5 -ranks 2 -dir bench/
//	swprof -ne 4 -nlev 8 -steps 10 -ranks 4 -trace prof.trace.json
//	swprof -ne 4 -nlev 8 -steps 10 -ranks 2 -dyn-workers 4 -dir bench/
//	swprof -ne 2 -nlev 4 -steps 6 -ranks 3 -faults chaos:4@42 -dir bench/
//	swprof -ne 3 -nlev 8 -steps 6 -ranks 2 -physics moist -phys-workers 0 -dir bench/
//	swprof -ne 2 -nlev 4 -steps 6 -ranks 3 -faults chaosflip:6@42 -scrub-every 1 -ckpt-generations 3 -dir bench/
//	swprof -validate bench/BENCH_1.json
//
// -scrub-every turns on the silent-data-corruption defenses (at-rest
// CRC scrubbing of every rank's resident state plus the global
// conservation ledger); with flip faults injected the bench file's
// integrity block records every detection and swprof exits nonzero if
// any injected flip went undetected or the recovered trajectory is not
// bit-identical to a fault-free replica.
//
// -dyn-workers sets the intra-rank tiling pool (see internal/exec):
// recording one run with -dyn-workers 1 and one with -dyn-workers 4 on
// the same configuration yields a serial-vs-tiled pair of BENCH files
// whose SYPD ratio is the intra-rank speedup. 0 selects adaptive
// sizing: every rank picks its own pool from its element count and
// downshifts to the serial fast path when tiles are too small to
// amortize (exec.AdaptiveWorkers).
//
// -physics steps a column-physics suite inside the run and records the
// work-stealing pool's activity (chunks, steals, per-worker
// utilization) in the bench file's phys block, along with a paired
// serial-vs-parallel physics measurement on the Intel backend — the
// SYPD ratio is the physics-parallelism speedup. Physics results are
// bit-identical for every -phys-workers value.
//
// With -trace the four backend runs land in one Chrome trace
// (pid = rank; runs follow each other on the time axis, spans carry the
// backend as their category). Load it in chrome://tracing or
// ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
	"swcam/internal/physics"
)

func main() {
	ne := flag.Int("ne", 2, "cubed-sphere resolution (elements per edge)")
	nlev := flag.Int("nlev", 4, "vertical levels")
	qsize := flag.Int("qsize", 3, "tracers")
	steps := flag.Int("steps", 5, "dynamics steps per backend")
	ranks := flag.Int("ranks", 2, "simulated core groups")
	dynWorkers := flag.Int("dyn-workers", 1, "intra-rank dynamics workers per rank (0 = adaptive: sized per rank from its element count, downshifting to serial on small ranks; 1 = serial; results are bit-identical for any value)")
	physMode := flag.String("physics", "", "column-physics suite stepped during the run: moist|held-suarez (default: adiabatic dynamics only)")
	physEvery := flag.Int("phys-every", 1, "with -physics: apply physics every N dynamics steps")
	physWorkers := flag.Int("phys-workers", 1, "with -physics: work-stealing physics workers per rank (0 = auto-size to the machine, downshifting to serial on small ranks; 1 = serial; results are bit-identical for any value)")
	dir := flag.String("dir", ".", "directory receiving BENCH_<n>.json")
	tracePath := flag.String("trace", "", "also write a combined Chrome trace to this file")
	validate := flag.String("validate", "", "validate an existing BENCH_<n>.json and exit")
	faults := flag.String("faults", "", "fault-injection spec per backend run (kill:R@OP, corrupt:R@OP, drop:R@OP, delay:R@OP:MS, flipState:R@OP, flipCheckpoint:R@OP, flipBuddy:R@OP, chaos:N@SEED, chaosflip:N@SEED); the run executes under supervision and the bench file records the recovery activity")
	spares := flag.Int("spares", 0, "with -faults: spare ranks for replacing permanently dead ranks")
	overlap := flag.Bool("overlap", true, "use the redesigned boundary-first exchange (§7.6); false selects the original blocking exchange")
	requireOverlap := flag.Bool("require-overlap", false, "fail unless every backend run measured a comm/compute overlap ratio > 0 (needs -overlap and ranks > 1)")
	scrubEvery := flag.Int("scrub-every", 0, "enable the SDC defenses: CRC-seal each rank's state every N steps and verify it at the next at-rest window, plus the mass/energy/tracer conservation ledger (0 = off; 1 is the only cadence that catches every resident flip before a checkpoint captures it)")
	ckptGenerations := flag.Int("ckpt-generations", 1, "with -faults: verified checkpoint generations to retain; a restore target that fails verification escalates to the next-older generation")
	flag.Parse()

	if *validate != "" {
		f, err := obs.LoadBenchFile(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swprof:", err)
			os.Exit(1)
		}
		fmt.Printf("swprof: %s valid (%s, %d backends)\n", *validate, f.Schema, len(f.Backends))
		return
	}
	if *steps < 1 || *ranks < 1 {
		fmt.Fprintln(os.Stderr, "swprof: -steps and -ranks must be positive")
		os.Exit(2)
	}

	var suiteMode physics.SuiteMode
	switch *physMode {
	case "":
	case "moist":
		suiteMode = physics.Moist
		if *qsize < 1 {
			fmt.Fprintln(os.Stderr, "swprof: -physics moist needs -qsize >= 1")
			os.Exit(2)
		}
	case "held-suarez":
		suiteMode = physics.HeldSuarezMode
	default:
		fmt.Fprintf(os.Stderr, "swprof: unknown -physics %q (moist|held-suarez)\n", *physMode)
		os.Exit(2)
	}
	if *physEvery < 1 {
		fmt.Fprintln(os.Stderr, "swprof: -phys-every must be positive")
		os.Exit(2)
	}
	if *scrubEvery < 0 {
		fmt.Fprintln(os.Stderr, "swprof: -scrub-every must be >= 0")
		os.Exit(2)
	}
	if *ckptGenerations < 1 {
		fmt.Fprintln(os.Stderr, "swprof: -ckpt-generations must be >= 1")
		os.Exit(2)
	}

	cfg := dycore.DefaultConfig(*ne)
	cfg.Nlev = *nlev
	cfg.Qsize = *qsize

	// dyn-workers 0 stays 0: SetDynWorkers passes it through as per-rank
	// adaptive sizing. phys-workers 0 maps to the negative auto sentinel
	// of the core config convention (0 is the legacy "serial" encoding).
	physReq := *physWorkers
	if physReq == 0 {
		physReq = -1
	}
	bench := obs.NewBenchFile(obs.BenchConfig{
		Ne: *ne, Nlev: *nlev, Qsize: *qsize, Steps: *steps, Ranks: *ranks,
		DynWorkers: *dynWorkers, Physics: *physMode, PhysWorkers: *physWorkers,
	})
	tracer := obs.NewTracer()
	for r := 0; r < *ranks; r++ {
		tracer.NameProcess(r, fmt.Sprintf("rank %d", r))
	}

	backends := []exec.Backend{exec.Intel, exec.MPE, exec.OpenACC, exec.Athread}
	dw := "adaptive"
	if *dynWorkers > 0 {
		dw = fmt.Sprintf("%d", *dynWorkers)
	}
	phys := "off"
	if *physMode != "" {
		pw := "auto"
		if *physWorkers > 0 {
			pw = fmt.Sprintf("%d", *physWorkers)
		}
		phys = fmt.Sprintf("%s every %d on %s workers", *physMode, *physEvery, pw)
	}
	fmt.Printf("swprof: ne%d nlev=%d qsize=%d, %d steps x %d ranks, %s intra-rank workers, physics %s, %d backends\n",
		*ne, *nlev, *qsize, *steps, *ranks, dw, phys, len(backends))
	run := runSpec{
		cfg: cfg, ranks: *ranks, steps: *steps, dynWorkers: *dynWorkers,
		overlap: *overlap, faults: *faults, spares: *spares,
		physMode: *physMode, suiteMode: suiteMode, physEvery: *physEvery, physReq: physReq,
		scrubEvery: *scrubEvery, generations: *ckptGenerations,
	}
	for _, b := range backends {
		name := strings.ToLower(b.String())
		sypd, wall, ratio, measured, err := runBackend(run, b, tracer, bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swprof: %s: %v\n", name, err)
			os.Exit(1)
		}
		ostr := "n/a"
		if measured {
			ostr = fmt.Sprintf("%.0f%%", 100*ratio)
		}
		fmt.Printf("  %-8s %8.3fs wall  SYPD %10.3f  overlap %s\n", name, wall, sypd, ostr)
		if *requireOverlap && (!measured || ratio <= 0) {
			fmt.Fprintf(os.Stderr, "swprof: %s: overlap ratio not > 0 (measured=%v ratio=%g); the redesigned exchange hid no communication\n",
				name, measured, ratio)
			os.Exit(1)
		}
	}
	if rec := bench.Recovery; rec != nil {
		fmt.Printf("  recovery (all backends): %d/%d retransmits recovered, %d ckpt, %d localized, %d respawn, %d shrink, %d rollback, %.1f ms\n",
			rec.Retransmitted, rec.Retransmits, rec.Checkpoints,
			rec.Localized, rec.Respawns, rec.Shrinks, rec.Rollbacks,
			float64(rec.RecoveryWallNs)/1e6)
	}
	if ph := bench.Phys; ph != nil {
		// The paired serial-vs-parallel physics measurement: the same
		// configuration on the Intel backend with a 1-worker pool and with
		// the requested pool, fault-free. Their SYPD ratio is the physics
		// speedup this box delivers (expect ~1x on few-core machines — the
		// CI bench-smoke job asserts > 1x only on >= 4-core runners).
		serial, err := pairSYPD(run, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swprof: phys pair (serial):", err)
			os.Exit(1)
		}
		par, err := pairSYPD(run, run.physReq)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swprof: phys pair (parallel):", err)
			os.Exit(1)
		}
		ph.SerialSYPD, ph.ParallelSYPD = serial, par
		fmt.Printf("  physics (%d workers, all backends): %d columns, %d chunks, %d steals / %d attempts; pair SYPD serial %.3f vs parallel %.3f (%.2fx)\n",
			ph.Workers, ph.Columns, ph.Chunks, ph.Steals, ph.StealAttempts,
			serial, par, par/serial)
	}

	if in := bench.Integrity; in != nil {
		detected := in.ScrubDetections + in.LedgerDetections + in.PoisonedCopies + in.PreShipRejects
		fmt.Printf("  integrity (scrub every %d, %d generations, all backends): %d seals, %d verifies, %d/%d flips detected, %d poisoned, %d escalations, scrub overhead %.2f%%\n",
			in.ScrubEvery, in.Generations, in.Seals, in.Verifies,
			detected, in.FlipsInjected, in.PoisonedCopies, in.Escalations, in.OverheadPct)
		if detected < in.FlipsInjected {
			fmt.Fprintf(os.Stderr, "swprof: %d injected flips but only %d detections — silent corruption went unnoticed\n",
				in.FlipsInjected, detected)
			os.Exit(1)
		}
	}

	path, err := obs.WriteBenchFile(*dir, bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swprof:", err)
		os.Exit(1)
	}
	fmt.Printf("bench written: %s\n", path)

	if *tracePath != "" {
		if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "swprof: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written: %s (%d events; load in chrome://tracing or ui.perfetto.dev)\n",
			*tracePath, tracer.Len())
	}
}

// runSpec is one benchmark configuration, shared by every backend run
// and the physics pair measurement.
type runSpec struct {
	cfg        dycore.Config
	ranks      int
	steps      int
	dynWorkers int
	overlap    bool
	faults     string
	spares     int
	physMode   string
	suiteMode  physics.SuiteMode
	physEvery  int
	physReq    int // core convention: negative = auto, 1 = serial

	scrubEvery  int // 0 = SDC defenses off
	generations int // verified checkpoint generations retained
}

// newJob builds a configured job for one run: backend, tiling pool,
// and (when requested) the physics phase with its steal pool.
func (rs runSpec) newJob(b exec.Backend, physWorkers int) (*core.ParallelJob, error) {
	job, err := core.NewParallelJob(rs.cfg, b, rs.overlap, rs.ranks)
	if err != nil {
		return nil, err
	}
	job.SetDynWorkers(rs.dynWorkers)
	if rs.physMode != "" {
		// Aquaplanet surface: the core model's default SST profile.
		if err := job.EnablePhysics(rs.suiteMode, rs.physEvery, 302, 30); err != nil {
			return nil, err
		}
		job.SetPhysWorkers(physWorkers)
	}
	if rs.scrubEvery > 0 {
		job.EnableIntegrity(rs.scrubEvery)
	}
	return job, nil
}

// initialState builds the benchmark initial condition: a baroclinic
// wave, with a moisture load in tracer 0 when moist physics runs (a dry
// column would make the convection and microphysics branches free).
func (rs runSpec) initialState() (*dycore.State, error) {
	s, err := dycore.NewSolver(rs.cfg)
	if err != nil {
		return nil, err
	}
	g := s.NewState()
	s.InitBaroclinicWave(g)
	if rs.physMode == "moist" && rs.cfg.Qsize >= 1 {
		npsq := rs.cfg.Np * rs.cfg.Np
		for ei := range g.Qdp {
			qdp := g.QdpAt(ei, 0)
			for k := 0; k < rs.cfg.Nlev; k++ {
				sig := float64(k+1) / float64(rs.cfg.Nlev)
				for n := 0; n < npsq; n++ {
					qdp[k*npsq+n] = 0.014 * sig * sig * g.DP[ei][k*npsq+n]
				}
			}
		}
	}
	return g, nil
}

// runBackend measures one backend: a fresh job and probe (sharing the
// combined tracer), one timed run, one bench entry. With a fault spec
// the run executes under the recovery supervisor (fresh fault plan per
// backend, so every backend faces the same schedule) and the recovery
// activity accumulates into the bench file's recovery block; with
// physics enabled the steal pool's activity accumulates into the phys
// block. The returned ratio is the measured comm/compute overlap (valid
// only when measured is true — i.e. the redesigned exchange ran real
// inner work).
func runBackend(rs runSpec, b exec.Backend,
	tracer *obs.Tracer, bench *obs.BenchFile) (sypd, wall, ratio float64, measured bool, err error) {
	job, err := rs.newJob(b, rs.physReq)
	if err != nil {
		return 0, 0, 0, false, err
	}
	probe := &obs.Probe{Tracer: tracer, Reg: obs.NewRegistry(), Kernels: obs.NewKernelTable()}
	job.Instrument(probe)

	g, err := rs.initialState()
	if err != nil {
		return 0, 0, 0, false, err
	}
	local := job.Scatter(g)

	if rs.faults == "" {
		start := time.Now()
		if _, err := job.RunChecked(local, rs.steps); err != nil {
			return 0, 0, 0, false, err
		}
		wall = time.Since(start).Seconds()
	} else {
		// A rank performs on the order of 40 communication ops per step;
		// chaos:N@SEED events are spread over that estimated span.
		plan, err := mpirt.ParseFaultPlan(rs.faults, rs.ranks, int64(rs.steps)*40)
		if err != nil {
			return 0, 0, 0, false, err
		}
		job.Faults = plan
		job.RecvTimeout = 2 * time.Second
		job.CheckEvery = 1
		rj := core.NewResilientJob(job)
		rj.CheckpointEvery = 1
		rj.MaxRetries = 10
		rj.Spares = rs.spares
		rj.Generations = rs.generations
		start := time.Now()
		rst, err := rj.Run(local, rs.steps)
		if err != nil {
			return 0, 0, 0, false, err
		}
		wall = time.Since(start).Seconds()
		if rs.scrubEvery > 0 {
			// The end-to-end SDC guarantee: after recovering from every
			// injected flip, the trajectory must be bit-identical to a
			// fault-free replica of the same backend and configuration.
			if err := rs.assertBitIdentical(b, job, rj.States()); err != nil {
				return 0, 0, 0, false, err
			}
		}
		rec := bench.Recovery
		if rec == nil {
			rec = &obs.BenchRecovery{}
			bench.Recovery = rec
		}
		rec.Retransmits += rst.RetxAttempts
		rec.Retransmitted += rst.RetxRecovered
		rec.Checkpoints += int64(rst.Checkpoints)
		rec.Localized += int64(rst.Localized)
		rec.Respawns += int64(rst.Respawns)
		rec.Shrinks += int64(rst.Shrinks)
		rec.Rollbacks += int64(rst.Rollbacks)
		rec.RecoveryWallNs += rst.RecoveryNs
	}
	sypd = obs.SYPD(float64(rs.steps)*rs.cfg.Dt, wall)
	name := strings.ToLower(b.String())
	bench.AddBackend(name, probe.Kernels, sypd, wall)
	if rs.physMode != "" {
		accumulatePhys(bench, job, probe)
	}
	if rs.scrubEvery > 0 {
		accumulateIntegrity(bench, rs, probe)
	}
	// Overlap ratio from the run's registry counters: only recorded when
	// the redesigned exchange actually ran inner work in its window.
	windows := probe.Reg.CounterValue("halo.overlap.windows")
	haloNs := probe.Reg.CounterValue("halo.ns")
	if windows > 0 && haloNs > 0 {
		measured = true
		ratio = 1 - float64(probe.Reg.CounterValue("halo.wait.ns"))/float64(haloNs)
		if ratio < 0 {
			ratio = 0
		}
		bench.SetBackendOverlap(name, ratio)
	}
	return sypd, wall, ratio, measured, nil
}

// accumulatePhys folds one backend run's steal-pool activity into the
// bench file's phys block. Column throughput comes from the run's
// registry (the suite's physics.columns counter); chunk and steal
// ledgers come from the job's pool snapshots. Worker slices accumulate
// slot-wise — every backend resolves the same pool size, so the slots
// line up.
func accumulatePhys(bench *obs.BenchFile, job *core.ParallelJob, probe *obs.Probe) {
	st := job.PhysStats()
	ph := bench.Phys
	if ph == nil {
		ph = &obs.BenchPhys{Workers: job.PhysWorkers()}
		bench.Phys = ph
	}
	ph.Columns += probe.Reg.CounterValue("physics.columns")
	ph.Chunks += st.Chunks
	ph.Steals += st.Steals
	ph.StealAttempts += st.StealAttempts
	if len(ph.WorkerChunks) == 0 {
		ph.WorkerChunks = make([]int64, ph.Workers)
		ph.WorkerBusyNs = make([]int64, ph.Workers)
	}
	for w := 0; w < ph.Workers && w < len(st.WorkerChunks); w++ {
		ph.WorkerChunks[w] += st.WorkerChunks[w]
		ph.WorkerBusyNs[w] += st.WorkerBusyNs[w]
	}
}

// assertBitIdentical runs a fault-free replica of the same backend and
// configuration and compares the FNV-64 of the gathered final state —
// the proof that detection plus verified restore converged back onto
// the clean trajectory instead of silently absorbing a flip.
func (rs runSpec) assertBitIdentical(b exec.Backend, job *core.ParallelJob, local []*dycore.State) error {
	got := core.StateFNV(job.Gather(local))
	ref, err := rs.newJob(b, rs.physReq)
	if err != nil {
		return err
	}
	g, err := rs.initialState()
	if err != nil {
		return err
	}
	rlocal := ref.Scatter(g)
	if _, err := ref.RunChecked(rlocal, rs.steps); err != nil {
		return fmt.Errorf("fault-free reference run: %w", err)
	}
	want := core.StateFNV(ref.Gather(rlocal))
	if got != want {
		return fmt.Errorf("post-recovery state fnv %016x != fault-free reference %016x — recovery was not bit-identical", got, want)
	}
	return nil
}

// accumulateIntegrity folds one backend run's SDC-defense activity into
// the bench file's integrity block from the run's registry counters.
func accumulateIntegrity(bench *obs.BenchFile, rs runSpec, probe *obs.Probe) {
	in := bench.Integrity
	if in == nil {
		in = &obs.BenchIntegrity{ScrubEvery: rs.scrubEvery, Generations: rs.generations}
		bench.Integrity = in
	}
	r := probe.Reg
	in.Seals += r.CounterValue("integrity.scrub.seals")
	in.Verifies += r.CounterValue("integrity.scrub.verifies")
	in.FlipsInjected += r.CounterValue("integrity.flips.state") +
		r.CounterValue("integrity.flips.checkpoint") +
		r.CounterValue("integrity.flips.buddy")
	in.ScrubDetections += r.CounterValue("integrity.scrub.detections")
	in.LedgerDetections += r.CounterValue("integrity.ledger.detections")
	in.PoisonedCopies += r.CounterValue("integrity.gen.poisoned")
	in.Escalations += r.CounterValue("integrity.gen.escalations")
	in.PreShipRejects += r.CounterValue("integrity.preship.rejects")
	in.ScrubNs += r.CounterValue("integrity.scrub.ns")
	in.StepNs += r.CounterValue("core.step.ns")
	if in.StepNs > 0 {
		in.OverheadPct = 100 * float64(in.ScrubNs) / float64(in.StepNs)
	}
}

// pairSYPD runs the benchmark configuration once on the Intel backend,
// fault-free, with an n-worker physics pool — one half of the
// serial-vs-parallel physics pair recorded in the phys block.
func pairSYPD(rs runSpec, n int) (float64, error) {
	job, err := rs.newJob(exec.Intel, n)
	if err != nil {
		return 0, err
	}
	g, err := rs.initialState()
	if err != nil {
		return 0, err
	}
	local := job.Scatter(g)
	start := time.Now()
	if _, err := job.RunChecked(local, rs.steps); err != nil {
		return 0, err
	}
	return obs.SYPD(float64(rs.steps)*rs.cfg.Dt, time.Since(start).Seconds()), nil
}
