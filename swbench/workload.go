package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
	"swcam/internal/physics"
)

// The common configuration every workload runs. Changing any of these
// changes the reference hashes and every metric: it is a new benchmark,
// and compare mode refuses to diff results across it (see configKey).
const (
	cfgNe     = 4
	cfgNlev   = 8
	cfgQsize  = 3
	cfgRanks  = 2
	physEvery = 2 // moist physics every 2 dynamics steps
	sst       = 302.0
	sstDelta  = 30.0

	// stepsPerCycle is the timed operation: one remap and (where
	// physics is on) one physics call, so every sample has one shape.
	stepsPerCycle = 2
	// cyclesPerSegment is how far a run advances from the initial
	// condition before it re-scatters it, untimed. 48 steps stay far
	// inside the stable horizon (the moist ne4 ParallelJob blows up near
	// step 850), and every segment ends on the same reference hash.
	cyclesPerSegment = 24
	// warmupCycles run untimed inside set-up: they build the lazily
	// allocated step scratch, halo buffers and CPE core groups.
	warmupCycles = 2

	// perturbAmp is the seeded temperature perturbation on the
	// baroclinic-wave IC, in K.
	perturbAmp = 0.5
)

// workload is one named input set of the benchmark.
type workload struct {
	name    string
	why     string
	backend exec.Backend
	moist   bool // moist physics every physEvery steps
	ladder  bool // ResilientJob ladder + integrity + seeded flips
	serial  bool // core.Model instead of ParallelJob
}

var workloads = []workload{
	{name: "athread-dyn", backend: exec.Athread,
		why: "Athread backend, adiabatic, fault-free: host time is the sw simulator and the Athread lowering, where simulator and kernel work shows"},
	{name: "intel-moist", backend: exec.Intel, moist: true,
		why: "Intel backend with moist physics every 2 steps: never touches sw, so it is the control a simulator change must not move"},
	{name: "ladder-flip", backend: exec.Intel, ladder: true,
		why: "ResilientJob ladder with a checkpoint per cycle, 3 generations, integrity on and seeded flips: the checkpoint and recovery write path"},
	{name: "serial-model", backend: exec.Intel, moist: true, serial: true,
		why: "core.Model (reference dycore.Solver plus serial moist physics, 1 rank): the only workload on the second timestep driver"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// dycoreConfig is the pinned grid and numerics.
func dycoreConfig() dycore.Config {
	cfg := dycore.DefaultConfig(cfgNe)
	cfg.Nlev = cfgNlev
	cfg.Qsize = cfgQsize
	return cfg
}

// initialState builds the seeded global initial condition: the
// baroclinic wave with a moisture load in tracer 0 (so euler_step, the
// limiter and the moist schemes do real work), perturbed by
// core.PerturbInitial from the workload seed.
func initialState(seed int64) (*dycore.State, error) {
	cfg := dycoreConfig()
	s, err := dycore.NewSolver(cfg)
	if err != nil {
		return nil, err
	}
	g := s.NewState()
	s.InitBaroclinicWave(g)
	npsq := cfg.Np * cfg.Np
	for ei := range g.Qdp {
		qdp := g.QdpAt(ei, 0)
		for k := 0; k < cfg.Nlev; k++ {
			sig := float64(k+1) / float64(cfg.Nlev)
			for n := 0; n < npsq; n++ {
				qdp[k*npsq+n] = 0.014 * sig * sig * g.DP[ei][k*npsq+n]
			}
		}
	}
	core.PerturbInitial(g, seed, perturbAmp)
	return g, nil
}

// runner drives one workload through its public driver calls.
type runner interface {
	// cycle advances one timed cycle of stepsPerCycle steps.
	cycle() error
	// reset re-installs the initial condition (untimed): step counters,
	// precipitation, fault plan and supervisor start over.
	reset() error
	// final returns the gathered global state.
	final() *dycore.State
	// endSegment checks what only the driver knows about a finished
	// segment (ladder-flip: every injected flip was detected).
	endSegment() error
	// instrument attaches a probe (nil detaches).
	instrument(p *obs.Probe)
}

// newRunner builds the workload's driver on the seeded IC and scatters
// it; the caller runs the warm-up.
func newRunner(w workload, seed int64) (runner, error) {
	ic, err := initialState(seed)
	if err != nil {
		return nil, err
	}
	if w.serial {
		return newModelRunner(ic)
	}
	job, err := newJob(w)
	if err != nil {
		return nil, err
	}
	pr := &jobRunner{w: w, seed: seed, ic: ic, job: job}
	if w.ladder {
		// The flip accounting reads the registry's counters, so
		// ladder-flip keeps a registry (no tracer, no kernel table)
		// attached even when tracing is off.
		pr.instrument(nil)
	}
	return pr, pr.reset()
}

// newJob builds the configured ParallelJob of workload w, without its
// fault plan and integrity defenses (reset installs those).
func newJob(w workload) (*core.ParallelJob, error) {
	job, err := core.NewParallelJob(dycoreConfig(), w.backend, true, cfgRanks)
	if err != nil {
		return nil, err
	}
	job.SetDynWorkers(1)
	job.CheckEvery = 1
	if w.moist {
		if err := job.EnablePhysics(physics.Moist, physEvery, sst, sstDelta); err != nil {
			return nil, err
		}
		job.SetPhysWorkers(1)
	}
	return job, nil
}

// jobRunner drives the three ParallelJob workloads.
type jobRunner struct {
	w     workload
	seed  int64
	ic    *dycore.State
	job   *core.ParallelJob
	local []*dycore.State
	rj    *core.ResilientJob  // ladder-flip only
	reg   *obs.Registry       // ladder-flip: always attached
	stats core.ResilientStats // summed over every supervised call

	flips, detected int64 // registry totals at the last segment boundary
}

func (r *jobRunner) reset() error {
	j := r.job
	j.SetStepCount(0)
	j.TotalPrecip = 0
	r.local = j.Scatter(r.ic)
	if !r.w.ladder {
		return nil
	}
	// Fresh seals and ledger: the ledger's step-over-step record must
	// not compare the new segment against the previous one's last step.
	j.EnableIntegrity(1)
	plan, err := mpirt.ParseFaultPlan(flipSpec(r.seed), cfgRanks, opsPerSegment())
	if err != nil {
		return err
	}
	j.Faults = plan
	rj := core.NewResilientJob(j)
	rj.Mode = core.ModeLadder
	rj.CheckpointEvery = stepsPerCycle
	rj.Generations = 3
	rj.MaxRetries = 10
	r.rj = rj
	return nil
}

// flipKinds is the fixed mix of flips every segment receives: two
// resident-state flips (each costs a verified rollback and a replayed
// cycle), one own-checkpoint flip and one buddy-copy flip (each caught
// by verification or audit). chaosflip:N@seed draws the kinds at random,
// so its recovery work would differ from seed to seed by a replayed
// cycle per state flip; a fixed mix keeps the work per segment the same
// and only the seeded ranks and positions vary.
var flipKinds = []string{"flipState", "flipState", "flipCheckpoint", "flipBuddy"}

// flipSpec draws the segment's flip schedule from the seed, in the
// fault-spec format of camsw -faults.
func flipSpec(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	ev := make([]string, len(flipKinds))
	for i, k := range flipKinds {
		ev[i] = fmt.Sprintf("%s:%d@%d", k, rng.Intn(cfgRanks), 1+rng.Int63n(opsPerSegment()))
	}
	return strings.Join(ev, ",")
}

// opsPerSegment is the span of per-rank communication operations the
// flip schedule spreads its flips over. A ladder rank performs
// about 21 ops per step at this configuration; spreading over 18 per
// step makes every scheduled flip fire inside its segment.
func opsPerSegment() int64 { return int64(cyclesPerSegment * stepsPerCycle * 18) }

func (r *jobRunner) cycle() error {
	if r.rj == nil {
		_, err := r.job.RunChecked(r.local, stepsPerCycle)
		return err
	}
	st, err := r.rj.Run(r.local, stepsPerCycle)
	r.local = r.rj.States()
	addResilient(&r.stats, st)
	return err
}

func (r *jobRunner) final() *dycore.State { return r.job.Gather(r.local) }

// instrument attaches p; ladder-flip falls back to a registry-only
// probe instead of detaching.
func (r *jobRunner) instrument(p *obs.Probe) {
	if r.w.ladder {
		if p == nil {
			p = &obs.Probe{Reg: obs.NewRegistry()}
		}
		r.reg = p.Reg
		r.flips, r.detected = flipCounts(r.reg)
	}
	r.job.Instrument(p)
}

// flipCounts reads the injected flips and the detections of the
// integrity defenses (scrubber, ledger, verified checkpoint store,
// pre-ship verification) from the registry, as swprof does.
func flipCounts(reg *obs.Registry) (injected, detected int64) {
	injected = reg.CounterValue("integrity.flips.state") +
		reg.CounterValue("integrity.flips.checkpoint") +
		reg.CounterValue("integrity.flips.buddy")
	detected = reg.CounterValue("integrity.scrub.detections") +
		reg.CounterValue("integrity.ledger.detections") +
		reg.CounterValue("integrity.gen.poisoned") +
		reg.CounterValue("integrity.preship.rejects")
	return injected, detected
}

// endSegment fails a ladder-flip segment in which an injected flip went
// undetected: the final hash could still match if the flip landed in a
// copy no restore consulted, so the count is checked on its own.
func (r *jobRunner) endSegment() error {
	if !r.w.ladder {
		return nil
	}
	f, d := flipCounts(r.reg)
	df, dd := f-r.flips, d-r.detected
	r.flips, r.detected = f, d
	return checkFlips(df, dd)
}

func checkFlips(injected, detected int64) error {
	if detected < injected {
		return fmt.Errorf("%d flips injected but %d detected: silent corruption went unnoticed", injected, detected)
	}
	return nil
}

// addResilient accumulates one supervised call's counts.
func addResilient(acc *core.ResilientStats, s core.ResilientStats) {
	acc.Checkpoints += s.Checkpoints
	acc.Rollbacks += s.Rollbacks
	acc.Poisoned += s.Poisoned
	acc.RecoveryNs += s.RecoveryNs
	acc.BuddyBytes += s.BuddyBytes
}

// modelRunner drives serial-model.
type modelRunner struct {
	ic *dycore.State
	m  *core.Model
}

func newModelRunner(ic *dycore.State) (*modelRunner, error) {
	cfg := core.Config{Dycore: dycoreConfig(), Physics: physics.Moist, PhysEvery: physEvery,
		SST: sst, SSTDelta: sstDelta, PhysWorkers: 1}
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	r := &modelRunner{ic: ic, m: m}
	return r, r.reset()
}

// reset rewinds the model. Model keeps its own step counter private;
// segments are whole cycles and physEvery divides stepsPerCycle, so the
// physics cadence is the same in every segment.
func (r *modelRunner) reset() error {
	r.m.State.CopyFrom(r.ic)
	r.m.Solver.SetStep(0)
	r.m.TotalPrecip = 0
	return nil
}

func (r *modelRunner) cycle() error {
	for i := 0; i < stepsPerCycle; i++ {
		r.m.Step()
	}
	return nil
}

func (r *modelRunner) final() *dycore.State { return r.m.State }

func (r *modelRunner) endSegment() error { return nil }

func (r *modelRunner) instrument(p *obs.Probe) { r.m.Attach(p) }

// setup builds a runner and runs its untimed warm-up cycles; the
// returned duration is the process CPU time of that set-up, the cost
// users pay before the first timed cycle.
func setup(w workload, seed int64) (runner, time.Duration, error) {
	c0 := cpuNs()
	r, err := newRunner(w, seed)
	if err != nil {
		return nil, 0, err
	}
	if jr, ok := r.(*jobRunner); ok {
		// Warm up fault-free: a flip scheduled among the first ops would
		// land in set-up on some seeds and not on others. The reset
		// below installs the segment's flips.
		jr.job.Faults = nil
	}
	for i := 0; i < warmupCycles; i++ {
		if err := r.cycle(); err != nil {
			return nil, 0, fmt.Errorf("warm-up cycle %d: %w", i, err)
		}
	}
	d := time.Duration(cpuNs() - c0)
	return r, d, r.reset()
}
