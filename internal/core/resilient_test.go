package core

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/mpirt"
)

// chaosSetup builds the shared scenario: a 3-rank distributed run over a
// small baroclinic-wave case, the fault-free reference trajectory, and a
// calibration of how many mpirt operations each rank performs — fault
// schedules are placed as fractions of that, so the test stays valid if
// the step's communication pattern evolves.
type chaosSetup struct {
	cfg    dycore.Config
	global *dycore.State
	ref    *dycore.State // fault-free final state after `steps`
	ops    []int64       // per-rank op counts of a fault-free run
	steps  int
	nranks int
}

func newChaosSetup(t *testing.T) *chaosSetup {
	t.Helper()
	cs := &chaosSetup{steps: 6, nranks: 3}
	cs.cfg = testDycoreCfg(2, 8, 1)
	s, err := dycore.NewSolver(cs.cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs.global = s.NewState()
	s.InitBaroclinicWave(cs.global)
	s.InitCosineBellTracer(cs.global, 0, 1, 0, 0.5)

	// Fault-free reference trajectory (plain job; the watchdog's
	// allreduce never modifies state, so it cannot change this).
	job := cs.newJob(t)
	local := job.Scatter(cs.global)
	job.Run(local, cs.steps)
	cs.ref = job.Gather(local)

	// Probe run with an empty plan attached to count ops per rank.
	probe := mpirt.NewFaultPlan(cs.nranks)
	job2 := cs.newJob(t)
	job2.Faults = probe
	local2 := job2.Scatter(cs.global)
	job2.Run(local2, cs.steps)
	cs.ops = make([]int64, cs.nranks)
	for r := 0; r < cs.nranks; r++ {
		cs.ops[r] = probe.Ops(r)
		if cs.ops[r] < 20 {
			t.Fatalf("rank %d performed only %d ops; fault placement would be degenerate", r, cs.ops[r])
		}
	}
	return cs
}

// newJob builds a job with the watchdog on — identical numerics to the
// plain configuration.
func (cs *chaosSetup) newJob(t *testing.T) *ParallelJob {
	t.Helper()
	job, err := NewParallelJob(cs.cfg, exec.Intel, true, cs.nranks)
	if err != nil {
		t.Fatal(err)
	}
	job.CheckEvery = 2
	return job
}

// assertBitIdentical compares FNV-64 hashes over the raw bits of every
// prognostic field (Phis included), so -0 vs +0 or a NaN cannot slip
// through; the max-abs difference only annotates a failure.
func (cs *chaosSetup) assertBitIdentical(t *testing.T, got *dycore.State) {
	t.Helper()
	if g, w := StateFNV(got), StateFNV(cs.ref); g != w {
		t.Fatalf("recovered state fnv %016x != fault-free %016x (max abs diff %g; must be bit-identical)",
			g, w, got.MaxAbsDiff(cs.ref))
	}
}

// The keystone chaos test: a multi-rank run with a rank kill, a payload
// corruption, a dropped message, and a delayed message injected mid-run
// must finish and produce the bit-identical final state of the
// fault-free run. Each fault resolves on its own rung: the two message
// faults are re-pulled by retransmission, the kill is rebuilt from its
// buddy copy, and nothing needs a global rollback.
func TestResilientJobRecoversBitIdentical(t *testing.T) {
	cs := newChaosSetup(t)
	plan := mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] * 2 / 5, Kind: mpirt.KillRank}).
		Add(mpirt.Fault{Rank: 0, AfterOp: cs.ops[0] * 3 / 5, Kind: mpirt.CorruptMsg}).
		Add(mpirt.Fault{Rank: 2, AfterOp: cs.ops[2] * 4 / 5, Kind: mpirt.DropMsg}).
		Add(mpirt.Fault{Rank: 0, AfterOp: cs.ops[0] / 5, Kind: mpirt.DelayMsg, Delay: 5 * time.Millisecond})

	job := cs.newJob(t)
	job.Faults = plan
	job.RecvTimeout = 2 * time.Second
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = 10
	rj.Backoff = time.Millisecond

	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if rs.Localized != 1 {
		t.Errorf("kill recovered via %d localized rebuilds, want 1: %v", rs.Localized, rs.Events)
	}
	if rs.RetxRecovered < 2 {
		t.Errorf("retransmission recovered %d messages, want >= 2 (corrupt, drop): %v", rs.RetxRecovered, rs.Events)
	}
	if rs.Rollbacks+rs.Respawns+rs.Shrinks != 0 {
		t.Errorf("faults escalated past their rungs: rollbacks:%d respawns:%d shrinks:%d: %v",
			rs.Rollbacks, rs.Respawns, rs.Shrinks, rs.Events)
	}
	if pending := plan.Pending(); len(pending) != 0 {
		t.Errorf("faults never fired: %+v", pending)
	}
	if rs.Run.Steps != cs.steps {
		t.Errorf("finished at step %d, want %d", rs.Run.Steps, cs.steps)
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// The same property under a seeded random chaos plan, with on-disk
// checkpointing enabled: the final state is still bit-identical, the
// last disk checkpoint matches it, and every scheduled fault fires and
// is handled by its rung — each kill by a localized rebuild, respawn,
// or shrink (this seed kills rank 1 three times, so the third death
// shrinks the world onto two ranks), each corrupt or drop by
// retransmission — with no global rollback.
func TestResilientJobSurvivesSeededChaos(t *testing.T) {
	cs := newChaosSetup(t)
	minOps := cs.ops[0]
	for _, v := range cs.ops {
		if v < minOps {
			minOps = v
		}
	}
	plan := mpirt.NewChaosPlan(1234, cs.nranks, minOps, 5)
	kills, msgFaults := 0, 0
	for _, f := range plan.Pending() {
		switch f.Kind {
		case mpirt.KillRank:
			kills++
		case mpirt.CorruptMsg, mpirt.DropMsg:
			msgFaults++
		}
	}
	if kills == 0 {
		t.Fatalf("chaos plan schedules no kill: %+v", plan.Pending())
	}

	job := cs.newJob(t)
	job.Faults = plan
	job.RecvTimeout = 2 * time.Second
	path := filepath.Join(t.TempDir(), "resilient.ck")
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = 20
	rj.DiskPath = path

	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	// A shrink replaces the plan; the live one is the job's.
	if pending := job.Faults.Pending(); len(pending) != 0 {
		t.Errorf("faults never fired: %+v", pending)
	}
	if got := rs.Localized + rs.Respawns + rs.Shrinks; got != kills {
		t.Errorf("%d kills handled by %d localized/respawn/shrink recoveries: %v", kills, got, rs.Events)
	}
	if rs.RetxRecovered < int64(msgFaults) {
		t.Errorf("retransmission recovered %d messages, want >= %d: %v", rs.RetxRecovered, msgFaults, rs.Events)
	}
	if rs.Rollbacks != 0 {
		t.Errorf("chaos escalated to %d global rollbacks: %v", rs.Rollbacks, rs.Events)
	}
	got := job.Gather(rj.States())
	cs.assertBitIdentical(t, got)

	disk, step, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("disk checkpoint unreadable: %v", err)
	}
	if step != cs.steps {
		t.Errorf("disk checkpoint at step %d, want %d", step, cs.steps)
	}
	if d := disk.MaxAbsDiff(got); d != 0 {
		t.Errorf("disk checkpoint differs from final state by %g", d)
	}
}

// A kill at the very first communication op — before the first
// checkpoint exists beyond the initial snapshot — still recovers: the
// localized rebuild's target is the step-0 snapshot (and its buddy
// copy) taken at Run entry.
func TestResilientJobRecoversFromImmediateKill(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).Add(mpirt.Fault{Rank: 2, AfterOp: 1, Kind: mpirt.KillRank})
	rj := NewResilientJob(job)
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if rs.Localized != 1 || rs.Rollbacks+rs.Respawns+rs.Shrinks != 0 {
		t.Errorf("kill handled by localized:%d rollbacks:%d respawns:%d shrinks:%d, want one localized rebuild: %v",
			rs.Localized, rs.Rollbacks, rs.Respawns, rs.Shrinks, rs.Events)
	}
	for _, e := range rs.Events {
		if e.Kind == "localized" && (e.Step != 0 || e.Rank != 2) {
			t.Errorf("rebuilt rank %d at step %d, want rank 2 at step 0: %v", e.Rank, e.Step, e)
		}
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// The blowup watchdog: a NaN planted in one rank's initial state must be
// caught by the allreduced check on every rank (cooperative abort). A
// blowup is not a rank failure — nobody's memory was lost, everyone's
// state is suspect — so the supervisor must use the global rung, and
// since the blowup replays deterministically, the retry budget exhausts
// and the supervisor degrades gracefully: best-effort state plus a
// diagnosis wrapping ErrBlowup, not a hang and not a panic.
func TestWatchdogCatchesBlowupAndDegradesGracefully(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.CheckEvery = 1
	rj := NewResilientJob(job)
	rj.MaxRetries = 2

	local := job.Scatter(cs.global)
	local[1].T[0][3] = math.NaN() // the blowup
	var events []RecoveryEvent
	rj.OnEvent = func(e RecoveryEvent) { events = append(events, e) }

	rs, err := rj.Run(local, cs.steps)
	if !errors.Is(err, ErrBlowup) {
		t.Fatalf("watchdog missed the blowup: %v", err)
	}
	if !errors.Is(err, dycore.ErrUnstable) {
		t.Errorf("diagnosis lost the State.Check detail: %v", err)
	}
	if rs.Rollbacks != rj.MaxRetries {
		t.Errorf("rollbacks = %d, want %d (blowups must use the global rung)", rs.Rollbacks, rj.MaxRetries)
	}
	if rs.Localized+rs.Respawns+rs.Shrinks != 0 {
		t.Errorf("blowup triggered localized machinery: %v", rs.Events)
	}
	if len(events) == 0 || events[len(events)-1].Kind != "giveup" {
		t.Errorf("no giveup event recorded: %v", events)
	}
	// Best-effort state: the job is rewound to the last good checkpoint.
	if job.StepCount() != 0 {
		t.Errorf("step counter not rewound: %d", job.StepCount())
	}
}

// Supervision without faults must be invisible: chunking, buddy
// replication, and checkpointing cannot perturb the trajectory or
// invent recoveries (remap and watchdog cadences are driven by the
// global step counter, not the chunking).
func TestResilientJobFaultFreeMatchesPlain(t *testing.T) {
	cs := newChaosSetup(t)
	for _, every := range []int{1, 2, 4} {
		job := cs.newJob(t)
		rj := NewResilientJob(job)
		rj.CheckpointEvery = every
		local := job.Scatter(cs.global)
		rs, err := rj.Run(local, cs.steps)
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if rs.Localized+rs.Respawns+rs.Shrinks+rs.Rollbacks != 0 {
			t.Errorf("every=%d: spurious recoveries: %v", every, rs.Events)
		}
		if rs.BuddyBytes == 0 {
			t.Errorf("every=%d: no buddy replication traffic recorded", every)
		}
		cs.assertBitIdentical(t, job.Gather(rj.States()))
	}
}

// A caller that gathers its pre-shrink slice gets a panic naming the
// mismatch and pointing at ResilientJob.States() — not a bare index out
// of range, and not a silent mix of two partition layouts.
func TestGatherRejectsStaleSliceAfterShrink(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	stale := job.Scatter(cs.global)
	if err := job.Shrink(1); err != nil {
		t.Fatal(err)
	}
	for name, local := range map[string][]*dycore.State{
		"longer":      stale,
		"same-length": stale[:job.NRanks],
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "ResilientJob.States()") {
					t.Errorf("stale slice panic %q does not point at ResilientJob.States()", msg)
				}
			}()
			job.Gather(local)
		})
	}
	if got := job.Gather(job.Scatter(cs.global)); StateFNV(got) != StateFNV(cs.global) {
		t.Error("Gather(Scatter(x)) on the shrunk layout is not x")
	}
}

// RunChecked surfaces a kill as an error without advancing the step
// counter, and a plain Run (the legacy API) panics on the same fault —
// the two documented failure modes.
func TestRunCheckedReportsFault(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).Add(mpirt.Fault{Rank: 0, AfterOp: 5, Kind: mpirt.KillRank})
	local := job.Scatter(cs.global)
	_, err := job.RunChecked(local, cs.steps)
	if !errors.Is(err, mpirt.ErrKilled) {
		t.Fatalf("RunChecked gave %v, want ErrKilled", err)
	}
	var re *mpirt.RunError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("faulty rank not identified: %v", err)
	}
	if job.StepCount() != 0 {
		t.Errorf("step counter advanced on a failed run: %d", job.StepCount())
	}
}
