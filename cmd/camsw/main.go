// Command camsw runs the miniature CAM end to end — spectral-element
// dynamics plus the CAM5-lite physics suite — and reports stability
// diagnostics and the achieved simulation rate.
//
//	camsw -ne 8 -nlev 16 -hours 6 -physics moist
//	camsw -ne 4 -nlev 8 -hours 24 -physics heldsuarez
//	camsw -ne 4 -nlev 8 -hours 2 -parallel 4 -backend athread
//	camsw -ne 4 -nlev 8 -hours 2 -parallel 2 -phys-workers 0
//	camsw -ne 2 -nlev 8 -hours 1 -parallel 3 -faults chaos:6@42 -checkpoint-every 2 -spares 1
//
// With -parallel N the full model — dynamics and the physics suite —
// runs through the distributed driver (N simulated core groups, halo
// exchanges, chosen execution backend) instead of the serial solver.
//
// -phys-workers sizes the work-stealing column-physics pool (per rank
// under -parallel): 0 auto-sizes to the machine and downshifts to
// serial on grids too small to amortize the fan-out; results are
// bit-identical for every value.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
	"swcam/internal/physics"
)

// watchSignals arms SIGINT/SIGTERM handling and returns a poll: the
// run loops check it between steps, so a signal finishes the current
// step, writes the final checkpoint, and flushes -obs/-trace instead
// of killing the process mid-write.
func watchSignals() func() bool {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	fired := false
	return func() bool {
		if fired {
			return true
		}
		select {
		case <-ch:
			fired = true
			signal.Stop(ch) // a second signal kills immediately
			fmt.Println("camsw: signal received; finishing the current step and shutting down cleanly")
		default:
		}
		return fired
	}
}

func main() {
	ne := flag.Int("ne", 4, "cubed-sphere resolution (elements per edge)")
	nlev := flag.Int("nlev", 8, "vertical levels")
	qsize := flag.Int("qsize", 3, "tracers (moist physics uses qv/qc/qr)")
	hours := flag.Float64("hours", 3, "simulated hours")
	phys := flag.String("physics", "moist", "physics suite: moist | heldsuarez | none")
	parallel := flag.Int("parallel", 0, "run dynamics distributed over N ranks (0 = serial)")
	backendName := flag.String("backend", "athread", "execution backend for -parallel: intel|mpe|openacc|athread")
	restart := flag.String("restart", "", "resume from a checkpoint file")
	checkpoint := flag.String("checkpoint", "", "write a checkpoint file at the end")
	history := flag.String("history", "", "write lat-lon history frames to this file")
	faults := flag.String("faults", "", "fault-injection spec for -parallel, comma-separated: kill:R@OP, corrupt:R@OP, drop:R@OP, delay:R@OP:MS, flipState:R@OP, flipCheckpoint:R@OP, flipBuddy:R@OP, chaos:N@SEED, chaosflip:N@SEED")
	ckEvery := flag.Int("checkpoint-every", 0, "with -parallel: checkpoint every N steps and auto-recover from faults through the recovery ladder — retransmit, then rebuild the failed rank from its buddy's in-memory copy, then global rollback (0 = no supervision)")
	spares := flag.Int("spares", 0, "with -checkpoint-every: spare ranks available to replace permanently dead ranks (0 = shrink onto the survivors instead)")
	obsOn := flag.Bool("obs", false, "collect and print the unified observability report (spans, counters, step report)")
	tracePath := flag.String("trace", "", "write a Chrome about://tracing JSON trace to this file (implies -obs)")
	dynWorkers := flag.Int("dyn-workers", 0, "with -parallel: intra-rank dynamics workers per rank (0 = adaptive: sized per rank from its element count, downshifting to serial on small ranks; 1 = serial; results are bit-identical for any value)")
	physWorkers := flag.Int("phys-workers", 1, "work-stealing column-physics workers, serial model and per -parallel rank (0 = auto-size to the machine, downshifting to serial on small grids; 1 = serial; results are bit-identical for any value)")
	scrubEvery := flag.Int("scrub-every", 0, "with -parallel: enable the silent-data-corruption defenses — CRC-seal each rank's resident state every N steps and re-verify it at the next at-rest window, plus the global mass/energy/tracer conservation ledger (0 = off; 1 catches every resident flip before a checkpoint can capture it)")
	ckptGenerations := flag.Int("ckpt-generations", 1, "with -checkpoint-every: verified checkpoint generations to retain; a restore target failing CRC verification escalates to the next-older generation instead of restoring garbage")
	flag.Parse()

	// Flag 0 = auto maps to the config convention's negative sentinel
	// (0 is the legacy "serial" encoding there).
	physReq := *physWorkers
	if physReq == 0 {
		physReq = -1
	}

	var probe *obs.Probe
	if *obsOn || *tracePath != "" {
		probe = obs.NewProbe()
	}
	interrupted := watchSignals()

	if *scrubEvery < 0 {
		fmt.Fprintln(os.Stderr, "camsw: -scrub-every must be >= 0")
		os.Exit(2)
	}
	if *ckptGenerations < 1 {
		fmt.Fprintln(os.Stderr, "camsw: -ckpt-generations must be >= 1")
		os.Exit(2)
	}
	if *parallel > 0 {
		runParallel(*ne, *nlev, *qsize, *hours, *parallel, *backendName, *phys, *faults, *ckEvery, *checkpoint, *spares, probe, *tracePath, *dynWorkers, physReq, *scrubEvery, *ckptGenerations, interrupted)
		return
	}
	if *faults != "" || *ckEvery > 0 {
		fmt.Fprintln(os.Stderr, "camsw: -faults and -checkpoint-every require -parallel")
		os.Exit(2)
	}

	cfg := core.DefaultConfig(*ne)
	cfg.Dycore.Nlev = *nlev
	cfg.Dycore.Qsize = *qsize
	cfg.PhysWorkers = physReq
	switch *phys {
	case "moist":
		cfg.Physics = physics.Moist
	case "heldsuarez":
		cfg.Physics = physics.HeldSuarezMode
		cfg.Dycore.Qsize = 0
	case "none":
		cfg.Physics = physics.HeldSuarezMode // suite exists but is cheap
		cfg.PhysEvery = 1 << 30
		cfg.Dycore.Qsize = 0
	default:
		fmt.Fprintf(os.Stderr, "camsw: unknown physics %q\n", *phys)
		os.Exit(2)
	}

	m, err := core.NewModel(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camsw:", err)
		os.Exit(1)
	}
	if probe != nil {
		m.Attach(probe)
		probe.Tracer.NameProcess(0, "serial model")
	}
	if *restart != "" {
		st, step, err := core.LoadCheckpoint(*restart)
		if err != nil {
			fmt.Fprintln(os.Stderr, "camsw: restart:", err)
			os.Exit(1)
		}
		m.State.CopyFrom(st)
		m.Solver.SetStep(step)
		fmt.Printf("camsw: resumed from %s at step %d\n", *restart, step)
	} else {
		m.Solver.InitBaroclinicWave(m.State)
		if cfg.Dycore.Qsize > 0 {
			moisten(m)
		}
	}

	steps := int(*hours * 3600 / cfg.Dycore.Dt)
	if steps < 1 {
		steps = 1
	}
	fmt.Printf("camsw: ne%d nlev=%d qsize=%d dt=%.0fs physics=%s: %d steps (%.1f h)\n",
		*ne, *nlev, cfg.Dycore.Qsize, cfg.Dycore.Dt, *phys, steps, *hours)

	var hw *core.HistoryWriter
	if *history != "" {
		f, err := os.Create(*history)
		if err != nil {
			fmt.Fprintln(os.Stderr, "camsw: history:", err)
			os.Exit(1)
		}
		defer f.Close()
		fields := []string{"T", "U", "V"}
		if cfg.Dycore.Qsize > 0 {
			fields = append(fields, "QV")
		}
		hw, err = core.NewHistoryWriter(f, core.NewSampler(m.Solver.Mesh, 72, 36), fields)
		if err != nil {
			fmt.Fprintln(os.Stderr, "camsw: history:", err)
			os.Exit(1)
		}
		defer hw.Close()
	}

	start := time.Now()
	report := steps / 5
	if report < 1 {
		report = 1
	}
	done := 0
	for i := 1; i <= steps; i++ {
		m.Step()
		done = i
		if hw != nil && (i%report == 0 || i == steps) {
			if err := core.WriteHistoryFrameForModel(hw, m); err != nil {
				fmt.Fprintln(os.Stderr, "camsw: history:", err)
				os.Exit(1)
			}
		}
		if i%report == 0 || i == steps {
			fmt.Printf("  step %4d (%5.1f h): maxwind %6.1f m/s  mass %.6e  minDP %8.2f  precip %.3f kg/m2\n",
				i, m.SimHours(), m.Solver.MaxWind(m.State), m.Solver.TotalMass(m.State),
				m.Solver.MinDP(m.State), m.TotalPrecip)
		}
		if interrupted() {
			break
		}
	}
	wall := time.Since(start).Seconds()
	simSeconds := float64(done) * cfg.Dycore.Dt
	sypd := obs.SYPD(simSeconds, wall)
	if done < steps {
		fmt.Printf("camsw: interrupted after step %d/%d\n", done, steps)
	}
	fmt.Printf("done: %.1fs wall, local-host simulation rate %.1f SYPD\n", wall, sypd)
	fmt.Println("(for modeled TaihuLight SYPD at scale, see: benchtab -fig 6)")
	finishObs(probe, *tracePath, obs.ReportInput{Steps: done, SimSeconds: simSeconds, WallSeconds: wall})
	if *checkpoint != "" {
		if err := core.SaveCheckpoint(*checkpoint, m.State, m.Solver.StepCount()); err != nil {
			fmt.Fprintln(os.Stderr, "camsw: checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written: %s\n", *checkpoint)
	}
}

func moisten(m *core.Model) { moistenState(m.State, m.Solver.Cfg) }

// moistenState seeds a sigma-shaped water-vapor load into tracer 0 so
// the moist suite's convection and microphysics have work to do.
func moistenState(st *dycore.State, cfg dycore.Config) {
	npsq := cfg.Np * cfg.Np
	for ei := range st.Qdp {
		qdp := st.QdpAt(ei, 0)
		for k := 0; k < cfg.Nlev; k++ {
			sig := float64(k+1) / float64(cfg.Nlev)
			for n := 0; n < npsq; n++ {
				i := k*npsq + n
				qdp[i] = 0.016 * sig * sig * sig * st.DP[ei][i]
			}
		}
	}
}

// finishObs prints the step report and unified counters and, when
// requested, writes the Chrome trace. Inert on a nil probe.
func finishObs(p *obs.Probe, tracePath string, in obs.ReportInput) {
	if p == nil {
		return
	}
	rep := obs.BuildStepReport(p.Kernels, p.Reg, in)
	fmt.Print(rep.Text())
	fmt.Println("== counters ==")
	p.Reg.WriteText(os.Stdout)
	if tracePath != "" {
		if err := p.Tracer.WriteChromeTraceFile(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "camsw: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written: %s (%d events; load in chrome://tracing or ui.perfetto.dev)\n",
			tracePath, p.Tracer.Len())
	}
}

func runParallel(ne, nlev, qsize int, hours float64, nranks int, backendName, physMode, faultSpec string, ckEvery int, ckPath string, spares int, probe *obs.Probe, tracePath string, dynWorkers, physReq, scrubEvery, ckptGenerations int, interrupted func() bool) {
	var backend exec.Backend
	switch backendName {
	case "intel":
		backend = exec.Intel
	case "mpe":
		backend = exec.MPE
	case "openacc":
		backend = exec.OpenACC
	case "athread":
		backend = exec.Athread
	default:
		fmt.Fprintf(os.Stderr, "camsw: unknown backend %q\n", backendName)
		os.Exit(2)
	}
	cfg := dycore.DefaultConfig(ne)
	cfg.Nlev = nlev
	cfg.Qsize = qsize
	job, err := core.NewParallelJob(cfg, backend, true, nranks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camsw:", err)
		os.Exit(1)
	}
	job.SetDynWorkers(dynWorkers)
	def := core.DefaultConfig(ne) // physics cadence and SST profile defaults
	switch physMode {
	case "moist":
		if qsize < 1 {
			fmt.Fprintln(os.Stderr, "camsw: -physics moist needs -qsize >= 1")
			os.Exit(2)
		}
		if err := job.EnablePhysics(physics.Moist, def.PhysEvery, def.SST, def.SSTDelta); err != nil {
			fmt.Fprintln(os.Stderr, "camsw:", err)
			os.Exit(1)
		}
		job.SetPhysWorkers(physReq)
	case "heldsuarez":
		if err := job.EnablePhysics(physics.HeldSuarezMode, def.PhysEvery, def.SST, def.SSTDelta); err != nil {
			fmt.Fprintln(os.Stderr, "camsw:", err)
			os.Exit(1)
		}
		job.SetPhysWorkers(physReq)
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "camsw: unknown physics %q\n", physMode)
		os.Exit(2)
	}
	if scrubEvery > 0 {
		job.EnableIntegrity(scrubEvery)
	}
	if probe != nil {
		job.Instrument(probe)
		for r := 0; r < nranks; r++ {
			probe.Tracer.NameProcess(r, fmt.Sprintf("rank %d (%v)", r, backend))
		}
	}
	s, _ := dycore.NewSolver(cfg)
	g := s.NewState()
	s.InitBaroclinicWave(g)
	if physMode == "moist" && qsize > 0 {
		moistenState(g, cfg)
	}
	local := job.Scatter(g)

	steps := int(hours * 3600 / cfg.Dt)
	if steps < 1 {
		steps = 1
	}
	if faultSpec != "" {
		// A rank performs on the order of 40 communication ops per step;
		// chaos:N@SEED events are spread over that estimated span.
		plan, err := mpirt.ParseFaultPlan(faultSpec, nranks, int64(steps)*40)
		if err != nil {
			fmt.Fprintln(os.Stderr, "camsw:", err)
			os.Exit(2)
		}
		job.Faults = plan
		job.RecvTimeout = 2 * time.Second // so dropped messages are detected
		job.CheckEvery = 1                // blowup watchdog every step
	}
	physStr := "off"
	if physMode != "none" {
		physStr = fmt.Sprintf("%s on %d workers", physMode, job.PhysWorkers())
	}
	fmt.Printf("camsw: distributed model, %d ranks, %v backend, %d steps, %d intra-rank workers, physics %s\n",
		nranks, backend, steps, job.EngineWorkers(), physStr)
	// The run is chunked so the loop can notice SIGINT/SIGTERM between
	// chunks: a signal finishes the current chunk, then the normal tail
	// (gather, final checkpoint, obs flush) runs.
	chunk := ckEvery
	if chunk < 1 {
		if chunk = steps / 20; chunk < 1 {
			chunk = 1
		}
	}
	start := time.Now()
	var stats core.RunStats
	done := 0
	if ckEvery > 0 {
		rj := core.NewResilientJob(job)
		rj.CheckpointEvery = ckEvery
		rj.MaxRetries = 10
		rj.DiskPath = ckPath
		rj.Spares = spares
		rj.Generations = ckptGenerations
		rj.OnEvent = func(e core.RecoveryEvent) {
			if e.Kind != "checkpoint" {
				fmt.Printf("  recovery: %v\n", e)
			}
		}
		var agg core.ResilientStats
		for done < steps && !interrupted() {
			n := chunk
			if steps-done < n {
				n = steps - done
			}
			rs, err := rj.Run(local, n)
			// A shrink recovery replaces the state slice (the world lost
			// a rank); the supervisor owns the current one.
			local = rj.States()
			if err != nil {
				fmt.Fprintln(os.Stderr, "camsw:", err)
				os.Exit(1)
			}
			addResilientStats(&agg, rs)
			done += n
		}
		stats = agg.Run
		fmt.Printf("  resilience: %d ckpt, %d/%d retransmits recovered, %d localized, %d respawn, %d shrink, %d rollback, %.1f ms in recovery\n",
			agg.Checkpoints, agg.RetxRecovered, agg.RetxAttempts,
			agg.Localized, agg.Respawns, agg.Shrinks, agg.Rollbacks,
			float64(agg.RecoveryNs)/1e6)
		if agg.Poisoned+agg.Escalations > 0 {
			fmt.Printf("  integrity: %d checkpoint copies poisoned, %d restore escalations past poisoned generations\n",
				agg.Poisoned, agg.Escalations)
		}
		if probe != nil {
			fmt.Printf("  recovery counters: %d steps replayed, %d giveups\n",
				probe.Reg.CounterValue("core.recovery.replayed_steps"),
				probe.Reg.CounterValue("core.recovery.giveups"))
		}
	} else {
		for done < steps && !interrupted() {
			n := chunk
			if steps-done < n {
				n = steps - done
			}
			st, err := job.RunChecked(local, n)
			if err != nil {
				fmt.Fprintln(os.Stderr, "camsw:", err)
				fmt.Fprintln(os.Stderr, "camsw: (use -checkpoint-every N to recover from faults automatically)")
				os.Exit(1)
			}
			stats.Halo.Add(st.Halo)
			stats.Cost.Add(st.Cost)
			stats.RetxAttempts += st.RetxAttempts
			stats.RetxRecovered += st.RetxRecovered
			stats.Steps = st.Steps
			done += n
		}
	}
	wall := time.Since(start).Seconds()
	if done < steps {
		fmt.Printf("camsw: interrupted after step %d/%d\n", done, steps)
	}
	got := job.Gather(local)
	fmt.Printf("  maxwind %.1f m/s, mass %.6e\n", s.MaxWind(got), s.TotalMass(got))
	if physMode != "none" {
		ps := job.PhysStats()
		fmt.Printf("  physics: %d workers, %d chunks, %d steals / %d attempts, precip %.3f kg/m2\n",
			job.PhysWorkers(), ps.Chunks, ps.Steals, ps.StealAttempts, job.TotalPrecip)
	}
	fmt.Printf("  halo: %d msgs, %.2f MB wire, %.2f MB staged\n",
		stats.Halo.Msgs, float64(stats.Halo.WireBytes)/1e6, float64(stats.Halo.StagingBytes)/1e6)
	fmt.Printf("  kernels: %.2e flops (%.0f%% vector), %.2f MB DMA, %d reg msgs\n",
		float64(stats.Cost.Flops()),
		100*float64(stats.Cost.FlopsVector)/float64(stats.Cost.Flops()+1),
		float64(stats.Cost.MemBytes)/1e6, stats.Cost.RegMsgs)
	fmt.Printf("done in %.1fs wall\n", wall)
	if ckPath != "" {
		if err := core.SaveCheckpoint(ckPath, got, job.StepCount()); err != nil {
			fmt.Fprintln(os.Stderr, "camsw: checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written: %s\n", ckPath)
	}
	finishObs(probe, tracePath, obs.ReportInput{
		Steps: done, SimSeconds: float64(done) * cfg.Dt, WallSeconds: wall,
	})
}

// addResilientStats folds one chunk's supervision stats into the run
// aggregate.
func addResilientStats(agg *core.ResilientStats, rs core.ResilientStats) {
	agg.Run.Halo.Add(rs.Run.Halo)
	agg.Run.Cost.Add(rs.Run.Cost)
	agg.Run.Steps = rs.Run.Steps
	agg.Run.RetxAttempts += rs.Run.RetxAttempts
	agg.Run.RetxRecovered += rs.Run.RetxRecovered
	agg.Checkpoints += rs.Checkpoints
	agg.Rollbacks += rs.Rollbacks
	agg.Localized += rs.Localized
	agg.Respawns += rs.Respawns
	agg.Shrinks += rs.Shrinks
	agg.Poisoned += rs.Poisoned
	agg.Escalations += rs.Escalations
	agg.RetxAttempts += rs.RetxAttempts
	agg.RetxRecovered += rs.RetxRecovered
	agg.RecoveryNs += rs.RecoveryNs
	agg.BuddyBytes += rs.BuddyBytes
	agg.Events = append(agg.Events, rs.Events...)
}
