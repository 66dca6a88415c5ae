package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"swcam/internal/dycore"
	"swcam/internal/mpirt"
)

// fillStateFields walks every field of dycore.State by reflection and
// fills the float64 payloads with pseudorandom values. The reflection
// walk is deliberate: a field added to State later must either be
// handled here or fail the test loudly, so the snapshot/restore and
// wire-codec round-trip properties below can never silently skip it.
func fillStateFields(t *testing.T, st *dycore.State, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int:
			// dims, set by NewState
		case reflect.Slice:
			ff, ok := f.Interface().([][]float64)
			if !ok {
				t.Fatalf("dycore.State field %s has unhandled slice type %s — extend the round-trip tests", name, f.Type())
			}
			for e := range ff {
				for j := range ff[e] {
					ff[e][j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
				}
			}
		default:
			t.Fatalf("dycore.State field %s has unhandled kind %s — extend the round-trip tests", name, f.Kind())
		}
	}
}

// diffStateFields compares two states bitwise, again by reflection over
// every State field.
func diffStateFields(t *testing.T, got, want *dycore.State, context string) {
	t.Helper()
	gv := reflect.ValueOf(got).Elem()
	wv := reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if gv.Field(i).Kind() != reflect.Slice {
			continue
		}
		gf := gv.Field(i).Interface().([][]float64)
		wf := wv.Field(i).Interface().([][]float64)
		if len(gf) != len(wf) {
			t.Fatalf("%s: field %s has %d elements, want %d", context, name, len(gf), len(wf))
		}
		for e := range gf {
			for j := range gf[e] {
				if math.Float64bits(gf[e][j]) != math.Float64bits(wf[e][j]) {
					t.Fatalf("%s: field %s[%d][%d] = %x, want %x (not bit-identical)",
						context, name, e, j, math.Float64bits(gf[e][j]), math.Float64bits(wf[e][j]))
				}
			}
		}
	}
}

// The snapshot/restore round-trip property: restore(snapshot(x))
// reproduces every State field bit-for-bit, including non-finite values
// and denormals, and including fields the checkpoint CRC covers.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	st := dycore.NewState(3, 4, 5, 2)
	fillStateFields(t, st, 7)
	// Plant awkward bit patterns a tolerance-based comparison would miss.
	st.U[0][0] = math.Copysign(0, -1) // negative zero
	st.T[1][2] = math.SmallestNonzeroFloat64
	st.DP[2][1] = math.MaxFloat64

	snap := snapshot([]*dycore.State{st})
	mutated := []*dycore.State{st}
	fillStateFields(t, st, 99) // clobber everything
	restore(mutated, snap)
	diffStateFields(t, st, snap[0], "restore(snapshot(x))")
}

// The buddy-snapshot wire codec round-trip: Decode(Encode(x)) is
// bit-identical across every field and preserves the step.
func TestRankSnapshotWireRoundTrip(t *testing.T) {
	st := dycore.NewState(2, 4, 3, 1)
	fillStateFields(t, st, 11)
	st.Phis[0][0] = math.Copysign(0, -1)

	enc, err := EncodeRankSnapshot(st, 42)
	if err != nil {
		t.Fatal(err)
	}
	dec, step, err := DecodeRankSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if step != 42 {
		t.Errorf("decoded step %d, want 42", step)
	}
	diffStateFields(t, dec, st, "Decode(Encode(x))")

	// A flipped payload bit must be caught by the checkpoint CRC, and the
	// failure must be classified as a buddy-snapshot error.
	bad := append([]float64(nil), enc...)
	bad[len(bad)/2] = math.Float64frombits(math.Float64bits(bad[len(bad)/2]) ^ 1)
	if _, _, err := DecodeRankSnapshot(bad); !errors.Is(err, ErrBuddySnapshot) {
		t.Errorf("corrupted payload decoded without ErrBuddySnapshot: %v", err)
	}
}

// runLadderCase drives one supervised ladder run over the shared chaos
// scenario and hands back everything the table tests assert on.
func runLadderCase(t *testing.T, cs *chaosSetup, plan *mpirt.FaultPlan, spares, maxRetries int) (ResilientStats, error, *ResilientJob) {
	t.Helper()
	job := cs.newJob(t)
	job.Faults = plan
	job.RecvTimeout = 2 * time.Second
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = maxRetries
	rj.Spares = spares
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	return rs, err, rj
}

// The escalation table: each fault pattern must resolve on exactly the
// rung the ladder design assigns it — retransmission for message
// faults, localized rebuild for a transient kill, respawn/shrink for a
// persistent kill (with and without spares), and give-up when the
// budget is zero. Every recovering case must also land bit-identical.
func TestLadderEscalation(t *testing.T) {
	cs := newChaosSetup(t)
	cases := []struct {
		name        string
		plan        func() *mpirt.FaultPlan
		spares      int
		maxRetries  int
		wantErr     bool
		wantRetx    bool // rung 1 recovered something
		wantLocal   int
		wantRespawn int
		wantShrink  int
		wantRoll    int
		wantRanks   int // NRanks after the run
		wantRank    int // attributed rank on the first rank-kinded event (-1 = none expected)
	}{
		{
			name: "retry-absorbs-corrupt",
			plan: func() *mpirt.FaultPlan {
				return mpirt.NewFaultPlan(cs.nranks).
					Add(mpirt.Fault{Rank: 0, AfterOp: cs.ops[0] / 2, Kind: mpirt.CorruptMsg})
			},
			maxRetries: 4, wantRetx: true, wantRanks: cs.nranks, wantRank: -1,
		},
		{
			name: "retry-absorbs-drop",
			plan: func() *mpirt.FaultPlan {
				return mpirt.NewFaultPlan(cs.nranks).
					Add(mpirt.Fault{Rank: 2, AfterOp: cs.ops[2] / 2, Kind: mpirt.DropMsg})
			},
			maxRetries: 4, wantRetx: true, wantRanks: cs.nranks, wantRank: -1,
		},
		{
			name: "localized-kill",
			plan: func() *mpirt.FaultPlan {
				return mpirt.NewFaultPlan(cs.nranks).
					Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] / 2, Kind: mpirt.KillRank})
			},
			maxRetries: 4, wantLocal: 1, wantRanks: cs.nranks, wantRank: 1,
		},
		{
			name: "respawn-persistent-kill",
			plan: func() *mpirt.FaultPlan {
				return mpirt.NewFaultPlan(cs.nranks).
					Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] / 2, Kind: mpirt.KillRank}).
					Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1]/2 + 10, Kind: mpirt.KillRank})
			},
			spares: 1, maxRetries: 4,
			wantLocal: 1, wantRespawn: 1, wantRanks: cs.nranks, wantRank: 1,
		},
		{
			name: "shrink-persistent-kill",
			plan: func() *mpirt.FaultPlan {
				return mpirt.NewFaultPlan(cs.nranks).
					Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] / 2, Kind: mpirt.KillRank}).
					Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1]/2 + 10, Kind: mpirt.KillRank})
			},
			maxRetries: 4,
			wantLocal:  1, wantShrink: 1, wantRanks: cs.nranks - 1, wantRank: 1,
		},
		{
			name: "giveup-zero-budget",
			plan: func() *mpirt.FaultPlan {
				return mpirt.NewFaultPlan(cs.nranks).
					Add(mpirt.Fault{Rank: 0, AfterOp: cs.ops[0] / 2, Kind: mpirt.KillRank})
			},
			maxRetries: 0, wantErr: true, wantRanks: cs.nranks, wantRank: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs, err, rj := runLadderCase(t, cs, tc.plan(), tc.spares, tc.maxRetries)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("expected a supervision error, got none (events: %v)", rs.Events)
				}
				if len(rs.Events) == 0 || rs.Events[len(rs.Events)-1].Kind != "giveup" {
					t.Errorf("no giveup event: %v", rs.Events)
				}
				return
			}
			if err != nil {
				t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
			}
			if tc.wantRetx && rs.RetxRecovered == 0 {
				t.Errorf("message fault not absorbed by retransmission: %+v", rs.Events)
			}
			if rs.Localized != tc.wantLocal || rs.Respawns != tc.wantRespawn ||
				rs.Shrinks != tc.wantShrink || rs.Rollbacks != tc.wantRoll {
				t.Errorf("rung ledger = localized:%d respawns:%d shrinks:%d rollbacks:%d, want %d/%d/%d/%d (events: %v)",
					rs.Localized, rs.Respawns, rs.Shrinks, rs.Rollbacks,
					tc.wantLocal, tc.wantRespawn, tc.wantShrink, tc.wantRoll, rs.Events)
			}
			if rj.Job.NRanks != tc.wantRanks {
				t.Errorf("NRanks = %d after run, want %d", rj.Job.NRanks, tc.wantRanks)
			}
			if tc.wantRank >= 0 {
				found := false
				for _, ev := range rs.Events {
					if ev.Rank >= 0 && ev.Kind != "checkpoint" {
						if ev.Rank != tc.wantRank {
							t.Errorf("first recovery attributed to rank %d, want %d: %v", ev.Rank, tc.wantRank, ev)
						}
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no rank-attributed recovery event: %v", rs.Events)
				}
			}
			// The contract every rung must honor: the recovered (possibly
			// shrunk) run reproduces the fault-free trajectory exactly.
			cs.assertBitIdentical(t, rj.Job.Gather(rj.States()))
		})
	}
}

// Ladder supervision without faults must be invisible even with every
// escalation rung armed: buddy replication, disk checkpoints and idle
// spares cannot perturb the trajectory or invent recoveries.
func TestLadderFaultFreeMatchesPlain(t *testing.T) {
	cs := newChaosSetup(t)
	for _, every := range []int{1, 3} {
		job := cs.newJob(t)
		rj := NewResilientJob(job)
		rj.CheckpointEvery = every
		rj.Spares = 1
		rj.DiskPath = t.TempDir() + "/ladder.ck"
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

// A lost buddy copy (corrupted in the buddy's memory) must not wedge the
// ladder: with a disk checkpoint configured the global rung takes over;
// the run still completes bit-identical.
func TestLadderFallsBackToDiskOnLostBuddyCopy(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.Faults = mpirt.NewFaultPlan(cs.nranks).
		Add(mpirt.Fault{Rank: 1, AfterOp: cs.ops[1] / 2, Kind: mpirt.KillRank})
	job.RecvTimeout = 2 * time.Second
	rj := NewResilientJob(job)
	rj.CheckpointEvery = 2
	rj.MaxRetries = 4
	rj.DiskPath = t.TempDir() + "/ladder.ck"
	// Corrupt every buddy copy of rank 1 as soon as it is replicated, so
	// the localized rung's CRC check rejects it and escalates.
	rj.OnEvent = func(e RecoveryEvent) {
		if e.Kind == "checkpoint" && len(rj.gens) > 0 && rj.gens[0].buddy[1] != nil {
			enc := rj.gens[0].buddy[1]
			enc[len(enc)/2] = math.Float64frombits(math.Float64bits(enc[len(enc)/2]) ^ 1)
		}
	}
	local := job.Scatter(cs.global)
	rs, err := rj.Run(local, cs.steps)
	if err != nil {
		t.Fatalf("disk fallback failed: %v (events: %v)", err, rs.Events)
	}
	if rs.Localized != 0 {
		t.Errorf("localized rung succeeded on a corrupt buddy copy: %v", rs.Events)
	}
	if rs.Rollbacks == 0 {
		t.Errorf("global rung never fired: %v", rs.Events)
	}
	cs.assertBitIdentical(t, job.Gather(rj.States()))
}

// The blowup watchdog with every escalation rung armed: a planted NaN
// is not a rank failure, so neither a spare nor a disk checkpoint may
// change the route — the ladder must use the global rung (nobody's
// memory was lost, everyone's state is suspect), and since the blowup
// replays deterministically the budget exhausts into a graceful give-up.
func TestLadderBlowupUsesGlobalRung(t *testing.T) {
	cs := newChaosSetup(t)
	job := cs.newJob(t)
	job.CheckEvery = 1
	rj := NewResilientJob(job)
	rj.MaxRetries = 2
	rj.Spares = 1
	rj.DiskPath = t.TempDir() + "/ladder.ck"
	local := job.Scatter(cs.global)
	local[1].T[0][3] = math.NaN()
	rs, err := rj.Run(local, cs.steps)
	if !errors.Is(err, ErrBlowup) {
		t.Fatalf("watchdog missed the blowup: %v", err)
	}
	if rs.Rollbacks != rj.MaxRetries {
		t.Errorf("rollbacks = %d, want %d (blowups must use the global rung)", rs.Rollbacks, rj.MaxRetries)
	}
	if rs.Localized+rs.Respawns+rs.Shrinks != 0 {
		t.Errorf("blowup triggered localized machinery: %v", rs.Events)
	}
}

// The chaos soak: every fault kind on every rank, plus seeded random
// plans, under ladder supervision. Single-rank message faults must be
// absorbed below the checkpoint layer entirely, single kills by the
// localized rung — never a global rollback — and every recovered run
// must be bit-identical to the fault-free trajectory.
func TestLadderChaosSoak(t *testing.T) {
	cs := newChaosSetup(t)
	kinds := []mpirt.FaultKind{mpirt.KillRank, mpirt.CorruptMsg, mpirt.DropMsg, mpirt.DelayMsg}
	for _, kind := range kinds {
		for r := 0; r < cs.nranks; r++ {
			kind, r := kind, r
			t.Run(fmt.Sprintf("%s-rank%d", kind, r), func(t *testing.T) {
				t.Parallel()
				plan := mpirt.NewFaultPlan(cs.nranks).
					Add(mpirt.Fault{Rank: r, AfterOp: cs.ops[r] / 2, Kind: kind, Delay: 5 * time.Millisecond})
				rs, err, rj := runLadderCase(t, cs, plan, 0, 6)
				if err != nil {
					t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
				}
				if rs.Rollbacks != 0 {
					t.Errorf("single %s fault escalated to a global rollback: %v", kind, rs.Events)
				}
				if kind == mpirt.KillRank {
					if rs.Localized != 1 {
						t.Errorf("kill recovered via %d localized rebuilds, want 1: %v", rs.Localized, rs.Events)
					}
				} else if rs.Localized+rs.Respawns+rs.Shrinks != 0 {
					t.Errorf("%s fault reached the checkpoint layer: %v", kind, rs.Events)
				}
				if pending := plan.Pending(); len(pending) != 0 {
					t.Errorf("fault never fired: %+v", pending)
				}
				cs.assertBitIdentical(t, rj.Job.Gather(rj.States()))
			})
		}
	}
	for _, seed := range []int64{41, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seeded-%d", seed), func(t *testing.T) {
			t.Parallel()
			minOps := cs.ops[0]
			for _, v := range cs.ops {
				if v < minOps {
					minOps = v
				}
			}
			plan := mpirt.NewChaosPlan(seed, cs.nranks, minOps, 4)
			rs, err, rj := runLadderCase(t, cs, plan, 1, 20)
			if err != nil {
				t.Fatalf("supervised run failed: %v (events: %v)", err, rs.Events)
			}
			cs.assertBitIdentical(t, rj.Job.Gather(rj.States()))
		})
	}
}
