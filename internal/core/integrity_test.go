package core

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"swcam/internal/integrity"
	"swcam/internal/mpirt"
	"swcam/internal/obs"
)

// The integrity-defense tests: resident-state flips caught by the
// at-rest scrubber, checkpoint-copy flips caught by verified restore
// and end-of-life audits, invariant drift caught by the conservation
// ledger, pre-ship verification keeping rotten snapshots off the wire —
// and through all of it, recovery that converges to the bit-identical
// fault-free trajectory.

// integrityJob wires a probe (the counters the assertions read) into a
// chaos-setup job with the SDC defenses on.
func (cs *chaosSetup) integrityJob(t *testing.T, scrubEvery int) (*ParallelJob, *obs.Probe) {
	t.Helper()
	job := cs.newJob(t)
	job.EnableIntegrity(scrubEvery)
	p := obs.NewProbe()
	job.Instrument(p)
	return job, p
}

// A single resident-state bit flip — finite, physically plausible,
// invisible to every message CRC — must be caught by the next at-rest
// scrub window, rolled back, and replayed to the bit-identical answer.
func TestScrubDetectsResidentStateFlip(t *testing.T) {
	cs := newChaosSetup(t)
	job, p := cs.integrityJob(t, 1)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] / 2, Kind: mpirt.FlipState})
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = 5

	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if got := p.R().CounterValue("integrity.flips.state"); got != 1 {
		t.Fatalf("injected flips = %d, want 1", got)
	}
	if got := p.R().CounterValue("integrity.scrub.detections"); got < 1 {
		t.Errorf("scrub never detected the flip (detections = %d): %v", got, rs.Events)
	}
	if rs.Rollbacks < 1 {
		t.Errorf("no rollback after detection: %v", rs.Events)
	}
	cs.assertBitIdentical(t, job.Gather(local))
}

// The detection error must route through the corruption rung, not the
// failure detector: a ladder-supervised run with only flip faults must
// never localize, respawn, or shrink (the ranks are healthy — their
// bits rotted).
func TestLadderRoutesCorruptionToVerifiedRestore(t *testing.T) {
	cs := newChaosSetup(t)
	job, p := cs.integrityJob(t, 1)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 0, AfterOp: cs.ops[0] / 3, Kind: mpirt.FlipState}).
		Add(mpirt.Fault{Rank: 2, AfterOp: cs.ops[2] / 2, Kind: mpirt.FlipState})
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = 8

	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if rs.Localized+rs.Respawns+rs.Shrinks != 0 {
		t.Errorf("corruption advanced the failure detector: %v", rs.Events)
	}
	if rs.Rollbacks < 1 {
		t.Errorf("no verified restore happened: %v", rs.Events)
	}
	if got := p.R().CounterValue("integrity.scrub.detections"); got < 2 {
		t.Errorf("detections = %d, want >= 2", got)
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// The flip chaos soak: seeded random plans of flipState, flipCheckpoint
// and flipBuddy faults across all ranks. Every injected flip must be
// detected somewhere (scrub, verified restore, or end-of-life audit —
// zero undetected corruptions), every fault must fire, and the run must
// finish bit-identical to the fault-free trajectory.
func TestFlipChaosSoakDetectsEverythingBitIdentical(t *testing.T) {
	cs := newChaosSetup(t)
	minOps := cs.ops[0]
	for _, v := range cs.ops {
		if v < minOps {
			minOps = v
		}
	}
	for _, seed := range []int64{7, 42, 1234} {
		job, p := cs.integrityJob(t, 1)
		plan := mpirt.NewFlipChaosPlan(seed, cs.nranks, minOps, 6)
		job.Faults = plan
		job.RecvTimeout = 2 * time.Second
		rj := NewResilientJob(job)
		rj.CheckpointEvery = 2
		rj.Generations = 2
		rj.MaxRetries = 25
		rj.DiskPath = filepath.Join(t.TempDir(), "soak.ck")

		local := job.Scatter(cs.global)
		rs, err := rj.Run(local, cs.steps)
		if err != nil {
			t.Fatalf("seed %d: supervised run failed: %v (events: %v)", seed, err, rs.Events)
		}
		if pending := plan.Pending(); len(pending) != 0 {
			t.Errorf("seed %d: flips never fired: %+v", seed, pending)
		}
		reg := p.R()
		injected := reg.CounterValue("integrity.flips.state") +
			reg.CounterValue("integrity.flips.checkpoint") +
			reg.CounterValue("integrity.flips.buddy")
		detected := reg.CounterValue("integrity.scrub.detections") +
			reg.CounterValue("integrity.ledger.detections") +
			reg.CounterValue("integrity.gen.poisoned") +
			reg.CounterValue("integrity.preship.rejects")
		if injected != 6 {
			t.Errorf("seed %d: %d flips injected, want 6", seed, injected)
		}
		if detected < injected {
			t.Errorf("seed %d: %d/%d flips detected — undetected silent corruption: %v",
				seed, detected, injected, rs.Events)
		}
		cs.assertBitIdentical(t, job.Gather(rj.States()))
	}
}

// corruptGenOwn flips one mantissa bit of rank 1's own snapshot in
// generation g — rot landing in checkpoint memory after the seal.
func corruptGenOwn(g *ckptGeneration) {
	v := &g.own[1].T[0][3]
	*v = math.Float64frombits(math.Float64bits(*v) ^ (1 << 17))
}

// poisonGen rots both copies of rank 1 in generation g — its own
// snapshot and the buddy-held replica — so verification has nothing to
// heal from and the generation is truly poisoned.
func poisonGen(g *ckptGeneration) {
	corruptGenOwn(g)
	flipPayloadWord(g.buddy[1], int64(g.step))
}

// poisonedRingJob builds the escalation-matrix scenario: scrubbing on,
// one resident-state flip on rank 2 late in the run — detected silent
// corruption routes straight to the global rung (verified restore) —
// and an OnEvent hook that poisons every generation as it is
// checkpointed (all of them when all is set, else only the first
// step-4 one).
func (cs *chaosSetup) poisonedRingJob(t *testing.T, gens int, all bool) (*ResilientJob, *obs.Probe, map[*ckptGeneration]bool) {
	t.Helper()
	job, p := cs.integrityJob(t, 1)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 2, AfterOp: cs.ops[2] * 3 / 4, Kind: mpirt.FlipState})
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.Generations = gens
	rj.MaxRetries = 5
	hit := map[*ckptGeneration]bool{}
	rj.OnEvent = func(e RecoveryEvent) {
		if e.Kind != "checkpoint" {
			return
		}
		for _, g := range rj.gens {
			if !hit[g] && (all || (g.step == 4 && len(hit) == 0)) {
				hit[g] = true
				poisonGen(g)
			}
		}
	}
	return rj, p, hit
}

// assertFlipRouted checks the flip's rung: the scrubber detected it
// and the failure detector never advanced (no localized rebuild,
// respawn, or shrink — the rank is healthy, its bits rotted).
func assertFlipRouted(t *testing.T, rs ResilientStats, p *obs.Probe) {
	t.Helper()
	if got := p.R().CounterValue("integrity.flips.state"); got != 1 {
		t.Errorf("injected flips = %d, want 1", got)
	}
	if got := p.R().CounterValue("integrity.scrub.detections"); got < 1 {
		t.Errorf("scrub never detected the flip: %v", rs.Events)
	}
	if rs.Localized+rs.Respawns+rs.Shrinks != 0 {
		t.Errorf("corruption advanced the failure detector: %v", rs.Events)
	}
}

// The poisoned-generation escalation matrix, case 1: the newest
// generation rots in checkpoint memory (both copies of one rank), so
// the verified restore a detected flip triggers must escalate to the
// next-older generation and replay the extra steps.
func TestRestoreEscalatesPastPoisonedGeneration(t *testing.T) {
	cs := newChaosSetup(t)
	rj, p, hit := cs.poisonedRingJob(t, 3, false)
	rs, err := rj.Run(rj.Job.Scatter(cs.global), cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if len(hit) != 1 {
		t.Fatalf("test poisoned %d generations, want 1 (checkpoint cadence changed?)", len(hit))
	}
	assertFlipRouted(t, rs, p)
	if rs.Poisoned < 2 || rs.Escalations != 1 {
		t.Errorf("poisoned = %d, escalations = %d, want >= 2 and 1: %v", rs.Poisoned, rs.Escalations, rs.Events)
	}
	if got := p.R().CounterValue("integrity.gen.escalations"); got != 1 {
		t.Errorf("escalation counter = %d, want 1", got)
	}
	if rs.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1: %v", rs.Rollbacks, rs.Events)
	}
	var rolledTo []int
	for _, e := range rs.Events {
		if e.Kind == "rollback" {
			rolledTo = append(rolledTo, e.Step)
		}
	}
	if len(rolledTo) != 1 || rolledTo[0] != 2 {
		t.Errorf("rolled back to steps %v, want [2] (past the poisoned step-4 generation)", rolledTo)
	}
	cs.assertBitIdentical(t, rj.Job.Gather(rj.States()))
}

// Case 2: every retained generation is poisoned, so the restore falls
// through the whole ring to the disk checkpoint — and still finishes
// bit-identical.
func TestRestoreFallsThroughPoisonedRingToDisk(t *testing.T) {
	cs := newChaosSetup(t)
	rj, p, _ := cs.poisonedRingJob(t, 2, true)
	rj.DiskPath = filepath.Join(t.TempDir(), "fallthrough.ck")
	rs, err := rj.Run(rj.Job.Scatter(cs.global), cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	assertFlipRouted(t, rs, p)
	if rs.Escalations != 2 {
		t.Errorf("escalations = %d, want 2 (both generations dropped): %v", rs.Escalations, rs.Events)
	}
	if rs.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1 (the disk rung): %v", rs.Rollbacks, rs.Events)
	}
	cs.assertBitIdentical(t, rj.Job.Gather(rj.States()))
}

// Case 3: every generation poisoned and no disk checkpoint — the
// supervisor must give up gracefully with a diagnosis wrapping
// ErrCorrupt, not restore garbage and not hang.
func TestRestoreGivesUpWhenEverythingIsPoisoned(t *testing.T) {
	cs := newChaosSetup(t)
	rj, p, _ := cs.poisonedRingJob(t, 2, true)
	rs, err := rj.Run(rj.Job.Scatter(cs.global), cs.steps)
	if err == nil {
		t.Fatalf("run claimed success with every checkpoint poisoned: %v", rs.Events)
	}
	if !errors.Is(err, integrity.ErrCorrupt) {
		t.Errorf("diagnosis lost the corruption detail: %v", err)
	}
	assertFlipRouted(t, rs, p)
	if rs.Escalations != 2 || rs.Rollbacks != 0 {
		t.Errorf("escalations = %d, rollbacks = %d, want 2 and 0 (nothing left to restore): %v",
			rs.Escalations, rs.Rollbacks, rs.Events)
	}
	kinds := map[string]bool{}
	for _, e := range rs.Events {
		kinds[e.Kind] = true
	}
	if !kinds["giveup"] || !kinds["poisoned"] {
		t.Errorf("missing giveup/poisoned events: %v", rs.Events)
	}
}

// A snapshot that rots between encode and ship is rejected by the
// pre-ship verification and re-encoded from the live state — the
// partner's last good copy is never overwritten with garbage, and the
// run proceeds as if nothing happened.
func TestPreShipVerificationRepairsRottenSnapshot(t *testing.T) {
	cs := newChaosSetup(t)
	job, p := cs.integrityJob(t, 1)
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	corrupted := false
	rj.PreShipHook = func(rank int, enc []float64) {
		if rank == 1 && !corrupted {
			corrupted = true
			enc[len(enc)/2] = math.Float64frombits(math.Float64bits(enc[len(enc)/2]) ^ 1)
		}
	}
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
	}
	if got := p.R().CounterValue("integrity.preship.rejects"); got != 1 {
		t.Errorf("preship rejects = %d, want 1", got)
	}
	if rs.Rollbacks+rs.Localized != 0 {
		t.Errorf("pre-ship repair leaked into recovery: %v", rs.Events)
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// A snapshot that fails verification even after a re-encode must not
// ship at all: the checkpoint round fails with ErrCorrupt instead of
// poisoning the partner.
func TestPreShipVerificationRefusesPersistentRot(t *testing.T) {
	cs := newChaosSetup(t)
	job, _ := cs.integrityJob(t, 1)
	rj := NewResilientJob(job)
	rj.MaxRetries = 0
	rj.PreShipHook = func(rank int, enc []float64) {
		if rank == 1 {
			enc[len(enc)/2] = math.Float64frombits(math.Float64bits(enc[len(enc)/2]) ^ 1)
		}
	}
	local := job.Scatter(cs.global)
	_, err := rj.Run(local, cs.steps)
	if err == nil {
		t.Fatal("a persistently rotten snapshot shipped")
	}
	if !errors.Is(err, integrity.ErrCorrupt) {
		t.Errorf("rejection not classified as corruption: %v", err)
	}
}

// A flipped checkpoint copy that no restore ever consults must still be
// counted: the end-of-life audit (eviction past the retention cap, or
// end of run) verifies it and records the poisoning. Zero undetected
// corruptions means zero, not "zero among the copies we happened to
// read".
func TestAuditCountsUnconsultedCorruption(t *testing.T) {
	cs := newChaosSetup(t)
	job, p := cs.integrityJob(t, 1)
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.Generations = 1 // second checkpoint evicts (and audits) the first
	corrupted := false
	rj.OnEvent = func(e RecoveryEvent) {
		if e.Kind == "checkpoint" && !corrupted {
			corrupted = true
			corruptGenOwn(rj.gens[0])
		}
	}
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("fault-free run failed: %v (events: %v)", err, rs.Events)
	}
	if rs.Poisoned < 1 {
		t.Errorf("audit missed the corrupted evicted generation: %v", rs.Events)
	}
	if got := p.R().CounterValue("integrity.gen.audits"); got < 1 {
		t.Errorf("audit counter = %d, want >= 1", got)
	}
	if rs.Rollbacks != 0 {
		t.Errorf("audit triggered recovery on a fault-free run: %v", rs.Events)
	}
	// The live trajectory never read the poisoned copy: still identical.
	cs.assertBitIdentical(t, job.Gather(local))
}

// The in-compute guard: corruption that lands where the scrubber cannot
// see it (inside a step, or with scrubbing effectively off) must still
// trip the conservation ledger — here a temperature scaling that leaves
// the state finite but breaks energy conservation step-over-step.
func TestLedgerDetectsInComputeCorruption(t *testing.T) {
	cs := newChaosSetup(t)
	// Scrub cadence far beyond the run: the ledger is the only guard.
	job, p := cs.integrityJob(t, 1000)
	local := job.Scatter(cs.global)
	if _, err := job.RunChecked(local, 2); err != nil {
		t.Fatalf("clean steps failed: %v", err)
	}
	for e := range local[0].T {
		for i := range local[0].T[e] {
			local[0].T[e][i] *= 2 // finite, watchdog-invisible, unphysical
		}
	}
	_, err := job.RunChecked(local, 1)
	if err == nil {
		t.Fatal("ledger missed a 2x energy injection")
	}
	if !errors.Is(err, integrity.ErrCorrupt) {
		t.Errorf("ledger detection not classified as corruption: %v", err)
	}
	if got := p.R().CounterValue("integrity.ledger.detections"); got != 1 {
		t.Errorf("ledger detections = %d, want 1", got)
	}
	if job.StepCount() != 2 {
		t.Errorf("step counter advanced past a flagged step: %d", job.StepCount())
	}
}

// The ledger must tolerate the model's real step-over-step drift: a
// fault-free supervised run with the defenses on reports nothing.
func TestIntegrityFaultFreeIsSilentAndBitIdentical(t *testing.T) {
	cs := newChaosSetup(t)
	job, p := cs.integrityJob(t, 1)
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.Generations = 3
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("fault-free run failed: %v (events: %v)", err, rs.Events)
	}
	reg := p.R()
	for _, c := range []string{
		"integrity.scrub.detections", "integrity.ledger.detections",
		"integrity.gen.poisoned", "integrity.preship.rejects",
	} {
		if got := reg.CounterValue(c); got != 0 {
			t.Errorf("%s = %d on a fault-free run", c, got)
		}
	}
	if reg.CounterValue("integrity.scrub.verifies") == 0 ||
		reg.CounterValue("integrity.ledger.checks") == 0 ||
		reg.CounterValue("integrity.preship.checks") == 0 {
		t.Error("defenses were silent because they never ran")
	}
	if rs.Rollbacks+rs.Localized+rs.Poisoned != 0 {
		t.Errorf("spurious recovery activity: %v", rs.Events)
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// ScrubVerifyLive is the pre-checkpoint gate: a flip landing after the
// final step of a chunk — where no next-step verify would run — must be
// caught before the state is captured.
func TestScrubVerifyLiveClosesTheLastWindow(t *testing.T) {
	cs := newChaosSetup(t)
	job, _ := cs.integrityJob(t, 1)
	local := job.Scatter(cs.global)
	if _, err := job.RunChecked(local, 2); err != nil {
		t.Fatal(err)
	}
	if err := job.ScrubVerifyLive(local); err != nil {
		t.Fatalf("clean state failed live verification: %v", err)
	}
	v := &local[1].DP[0][7]
	*v = math.Float64frombits(math.Float64bits(*v) ^ (1 << 3))
	err := job.ScrubVerifyLive(local)
	if err == nil {
		t.Fatal("live verification missed a post-step flip")
	}
	if !errors.Is(err, integrity.ErrCorrupt) {
		t.Errorf("detection not classified as corruption: %v", err)
	}
}
