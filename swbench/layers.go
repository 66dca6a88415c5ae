package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/exec"
	"swcam/internal/halo"
	"swcam/internal/integrity"
	"swcam/internal/mpirt"
	"swcam/internal/perf"
	"swcam/internal/physics"
	"swcam/internal/sw"
)

// Layer passes call each module's public functions directly, outside
// the driver, on the benchmark's configuration. They measure a layer
// alone, so a change to one module shows in its own row even when the
// end-to-end cycle hides it. Repetition counts are fixed, so the count
// metrics they produce repeat exactly.

// medianNs times fn reps times, running prep (untimed) before each, and
// returns the median duration in ns.
func medianNs(reps int, prep, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(ds)
	return quantile(ds, 0.5)
}

// allocsPer reports heap objects allocated per call of fn.
func allocsPer(reps int, fn func()) float64 {
	s := allocSamples()
	o0, _ := allocCounters(s)
	for i := 0; i < reps; i++ {
		fn()
	}
	o1, _ := allocCounters(s)
	return float64(o1-o0) / float64(reps)
}

// passFixture is the shared input of the layer passes: a throwaway
// (never-run, uninstrumented) job for its partition, plans and scatter,
// and the seeded initial condition.
type passFixture struct {
	cfg    dycore.Config
	ic     *dycore.State
	job    *core.ParallelJob
	local  []*dycore.State
	rank0  *dycore.State
	hybrid *dycore.HybridCoord
}

func newPassFixture(seed int64, nranks int) (*passFixture, error) {
	ic, err := initialState(seed)
	if err != nil {
		return nil, err
	}
	job, err := core.NewParallelJob(dycoreConfig(), exec.Intel, true, nranks)
	if err != nil {
		return nil, err
	}
	local := job.Scatter(ic)
	return &passFixture{cfg: dycoreConfig(), ic: ic, job: job, local: local, rank0: local[0],
		hybrid: dycore.NewHybridCoord(cfgNlev)}, nil
}

// execLayout returns the backend and rank count the exec pass models
// for workload w: rank 0 of the distributed job, or for serial-model the
// whole mesh on the Intel reference core (the serial Solver runs no exec
// kernel, so this is the same step's work on exec's reference backend).
func execLayout(w workload) (exec.Backend, int) {
	if w.serial {
		return exec.Intel, 1
	}
	return w.backend, cfgRanks
}

// kernelRun is one exec kernel of the step: how often a cycle launches
// it on rank 0, its per-call Cost, and its median host time.
type kernelRun struct {
	name     string
	perCycle int
	cost     exec.Cost
	hostNs   float64
}

// execPass runs each of the five Table-1 kernels of the step on rank
// r's elements through a fresh engine with the workload's backend.
// Every call starts from the same state, so each call's Cost is the
// one the driver's step accounts. reps <= 0 skips host timing.
func execPass(f *passFixture, r int, b exec.Backend, reps int) []kernelRun {
	cfg := f.cfg
	en := exec.NewEngine(f.job.Mesh, f.job.Plans[r].Elems, cfg.Nlev, cfg.Qsize)
	en.SetWorkers(1)
	src := f.local[r]
	st := src.Clone()
	out := src.Clone()
	n := st.NElem()
	per := cfg.Nlev * cfg.Np * cfg.Np
	lap := make([][][]float64, 4)
	for i := range lap {
		lap[i] = make([][]float64, n)
		for e := range lap[i] {
			lap[i][e] = make([]float64, per)
		}
	}
	reload := func() { st.CopyFrom(src) }
	sub := cfg.HypervisSubcycle
	dtHv := cfg.Dt / float64(sub)
	runs := []struct {
		name     string
		perCycle int
		fn       func() exec.Cost
	}{
		{"rhs", 2 * stepsPerCycle, func() exec.Cost { return en.ComputeAndApplyRHS(b, st, st, out, cfg.Dt) }},
		{"euler", 2 * stepsPerCycle, func() exec.Cost { return en.EulerStep(b, st, cfg.Dt) }},
		{"dp1", sub * stepsPerCycle, func() exec.Cost { return en.HypervisDP1(b, st, lap[0], lap[1], lap[2], lap[3]) }},
		{"dp2", sub * stepsPerCycle, func() exec.Cost {
			return en.HypervisDP2(b, lap[0], lap[1], lap[2], lap[3], st, dtHv, cfg.NuV, cfg.NuS)
		}},
		{"remap", stepsPerCycle / cfg.RemapFreq, func() exec.Cost { return en.VerticalRemap(b, f.hybrid, st) }},
	}
	// dp2 consumes dp1's Laplacians: compute them once from the IC.
	reload()
	en.HypervisDP1(b, st, lap[0], lap[1], lap[2], lap[3])
	res := make([]kernelRun, len(runs))
	for i, k := range runs {
		reload()
		kr := kernelRun{name: k.name, perCycle: k.perCycle, cost: k.fn()}
		if reps > 0 {
			kr.hostNs = medianNs(reps, reload, func() { k.fn() })
		}
		res[i] = kr
	}
	return res
}

// cycleCost sums the kernels' Costs over one cycle's launches.
func cycleCost(runs []kernelRun, b exec.Backend) exec.Cost {
	c := exec.Cost{Backend: b}
	for _, r := range runs {
		for i := 0; i < r.perCycle; i++ {
			c.Add(r.cost)
		}
	}
	return c
}

// exchangeShapes are the DSS exchanges of one step: the two RK stages
// and the hyperviscosity passes exchange 4 fields x nlev, the two
// tracer stages one field of qsize*nlev levels.
func exchangeShapes(cfg dycore.Config) []struct{ nfields, levels, perStep int } {
	return []struct{ nfields, levels, perStep int }{
		{4, cfg.Nlev, 2 + 2*cfg.HypervisSubcycle},
		{1, cfg.Qsize * cfg.Nlev, 2},
	}
}

// rank0Exchange runs one blocking DSS of the given shape on every rank
// of the fixture's partition and returns rank 0's stats.
func rank0Exchange(f *passFixture, nfields, levels int) (halo.Stats, error) {
	plans := freshPlans(f)
	npsq := f.cfg.Np * f.cfg.Np
	var st0 halo.Stats
	w := mpirt.NewWorld(len(plans))
	err := w.Run(func(c *mpirt.Comm) {
		r := c.Rank()
		fields := make([][][]float64, nfields)
		for i := range fields {
			fields[i] = allocFields(plans[r].NLocal(), levels*npsq)
		}
		s, err := plans[r].DSSOriginal(c, halo.LevelMajor(levels, npsq), fields...)
		if err != nil {
			mpirt.Fail(err)
		}
		if r == 0 {
			st0 = s
		}
	})
	return st0, err
}

// freshPlans builds uninstrumented exchange plans over the fixture's
// partition, so a pass never feeds the traced run's registry.
func freshPlans(f *passFixture) []*halo.Plan {
	plans := make([]*halo.Plan, f.job.NRanks)
	for r := range plans {
		plans[r] = halo.NewPlan(f.job.Mesh, f.job.RankOf, r)
	}
	return plans
}

func allocFields(n, per int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, per)
	}
	return out
}

// cpeClockHz is the SW26010 CPE clock, 1.45 GHz (perf.CPERate sustains
// one scalar op per cycle). Modeled times are reported in thousands of
// its cycles: they count the modeled machine's clock, deterministic by
// construction, and are not host timings. kcycles / 1450 = modeled ms.
const cpeClockHz = 1.45e9

// kcycles converts modeled seconds to thousands of CPE cycles.
func kcycles(sec float64) float64 { return sec * cpeClockHz / 1e3 }

// modeledStepKcycles is the modeled SW26010 time of one step for rank
// 0's core group: Σ perf.KernelTime over the step's kernel launches
// plus perf.ExchangeTime of rank 0's halo exchanges, counted without
// overlap credit (the exchange is charged in full), with both ranks on
// one supernode.
func modeledStepKcycles(f *passFixture, runs []kernelRun) (float64, error) {
	var s float64
	for _, r := range runs {
		s += float64(r.perCycle) * perf.KernelTime(r.cost)
	}
	if f.job.NRanks > 1 {
		for _, sh := range exchangeShapes(f.cfg) {
			hs, err := rank0Exchange(f, sh.nfields, sh.levels)
			if err != nil {
				return 0, err
			}
			if hs.Msgs == 0 {
				continue
			}
			t := perf.ExchangeTime(int(hs.Msgs), hs.WireBytes/hs.Msgs, true, false, 0)
			s += float64(sh.perStep*stepsPerCycle) * t
		}
	}
	return kcycles(s / stepsPerCycle), nil
}

// execMetrics fills the exec rows from the pass.
func execMetrics(ms *metricSet, runs []kernelRun, b exec.Backend, timed bool) {
	for _, r := range runs {
		if timed {
			ms.set("exec."+r.name+"_ms", r.hostNs/1e6)
		}
		ms.set("exec."+r.name+"_modeled_kcycles", kcycles(perf.KernelTime(r.cost)))
	}
	c := cycleCost(runs, b)
	ms.set("exec.flops", float64(c.Flops())/stepsPerCycle)
	ms.set("exec.mem_bytes", float64(c.MemBytes)/stepsPerCycle)
	ms.set("exec.flops_per_byte", float64(c.Flops())/float64(c.MemBytes))
	ms.set("exec.dma_ops", float64(c.DMAOps)/stepsPerCycle)
	ms.set("exec.reg_msgs", float64(c.RegMsgs)/stepsPerCycle)
	ms.set("exec.launches", float64(c.Launches)/stepsPerCycle)
	ms.set("exec.ldm_peak_bytes", float64(c.LDMPeak))
}

// swPass times the simulator alone on one core group.
func swPass(ms *metricSet) {
	cg := sw.NewCoreGroup(0)
	empty := func(c *sw.CPE) {}
	ms.set("sw.spawn_us", medianNs(300, nil, func() { cg.Spawn(empty) })/1e3)
	ms.set("sw.spawn_allocs", allocsPer(300, func() { cg.Spawn(empty) }))

	per := cfgNlev / sw.MeshDim
	if per < 1 {
		per = 1
	}
	local := make([][]float64, sw.CPEsPerCG)
	out := make([][]float64, sw.CPEsPerCG)
	blocks := make([][][]float64, sw.CPEsPerCG)
	for i := range local {
		local[i] = make([]float64, per)
		out[i] = make([]float64, per)
		for k := range local[i] {
			local[i][k] = float64(i + k + 1)
		}
		blocks[i] = make([][]float64, sw.MeshDim)
		for j := range blocks[i] {
			blocks[i][j] = make([]float64, sw.BlockDim*sw.BlockDim)
		}
	}
	scan := func(c *sw.CPE) { sw.ColumnScanExclusive(c, local[c.ID], out[c.ID], 0) }
	ms.set("sw.scan_us", medianNs(300, nil, func() { cg.Spawn(scan) })/1e3)
	transpose := func(c *sw.CPE) { sw.RowTranspose(c, blocks[c.ID]) }
	ms.set("sw.transpose_us", medianNs(300, nil, func() { cg.Spawn(transpose) })/1e3)
}

// inWorld runs body on every rank of a fresh world of n ranks; rank 0
// times reps iterations of it in batches and reports the median per
// iteration.
func inWorld(n, reps, batches int, body func(c *mpirt.Comm)) (float64, error) {
	per := make([]float64, batches)
	w := mpirt.NewWorld(n)
	err := w.Run(func(c *mpirt.Comm) {
		for b := 0; b < batches; b++ {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				body(c)
			}
			if c.Rank() == 0 {
				per[b] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
			}
		}
	})
	sort.Float64s(per)
	return quantile(per, 0.5), err
}

// haloPass times isolated exchanges of 4 fields x nlev (the dynamics
// shape) over an mpirt world, both exchange flavours.
func haloPass(ms *metricSet, f *passFixture) error {
	plans := freshPlans(f)
	npsq := f.cfg.Np * f.cfg.Np
	lay := halo.LevelMajor(f.cfg.Nlev, npsq)
	fields := make([][][][]float64, len(plans))
	for r := range plans {
		st := f.local[r].Clone() // the exchange averages in place
		fields[r] = [][][]float64{st.U, st.V, st.T, st.DP}
	}
	for _, flavour := range []string{"overlap", "original"} {
		overlap := flavour == "overlap"
		ns, err := inWorld(len(plans), 50, 7, func(c *mpirt.Comm) {
			r := c.Rank()
			var err error
			if overlap {
				_, err = plans[r].DSSOverlap(c, lay, nil, fields[r]...)
			} else {
				_, err = plans[r].DSSOriginal(c, lay, fields[r]...)
			}
			if err != nil {
				mpirt.Fail(err)
			}
		})
		if err != nil {
			return fmt.Errorf("halo pass (%s): %w", flavour, err)
		}
		ms.set("halo.dss_"+flavour+"_us", ns/1e3)
	}
	return nil
}

// mpirtPass times one scalar allreduce and one halo-sized message
// (rank 0's dynamics exchange to one neighbour), one way.
func mpirtPass(ms *metricSet, f *passFixture) error {
	ns, err := inWorld(cfgRanks, 200, 7, func(c *mpirt.Comm) {
		c.AllreduceScalar(mpirt.OpSum, 1)
	})
	if err != nil {
		return fmt.Errorf("allreduce pass: %w", err)
	}
	ms.set("mpirt.allreduce_us", ns/1e3)

	hs, err := rank0Exchange(f, 4, f.cfg.Nlev)
	if err != nil {
		return fmt.Errorf("halo size probe: %w", err)
	}
	words := 1
	if hs.Msgs > 0 {
		words = int(hs.WireBytes / hs.Msgs / 8)
	}
	const tag = 77
	bufs := [][]float64{make([]float64, words), make([]float64, words)}
	ns, err = inWorld(cfgRanks, 200, 7, func(c *mpirt.Comm) {
		buf := bufs[c.Rank()]
		if c.Rank() == 0 {
			c.Send(1, tag, buf)
			c.Recv(1, tag, buf)
		} else if c.Rank() == 1 {
			c.Recv(0, tag, buf)
			c.Send(0, tag, buf)
		}
	})
	if err != nil {
		return fmt.Errorf("pingpong pass: %w", err)
	}
	ms.set("mpirt.pingpong_us", ns/2/1e3)
	return nil
}

// physicsPass times Suite.Step over every column of rank 0, each rep
// from the same loaded columns.
func physicsPass(ms *metricSet, f *passFixture) {
	cfg := f.cfg
	npsq := cfg.Np * cfg.Np
	st := f.rank0
	plan := f.job.Plans[0]
	var cols, loaded []*physics.Column
	for le, ge := range plan.Elems {
		e := f.job.Mesh.Elements[ge]
		for n := 0; n < npsq; n++ {
			c := physics.NewColumn(cfg.Nlev)
			ps := dycore.PTop
			p := dycore.PTop
			for k := 0; k < cfg.Nlev; k++ {
				i := k*npsq + n
				c.DP[k] = st.DP[le][i]
				ps += c.DP[k]
				c.P[k] = p + c.DP[k]/2
				p += c.DP[k]
				c.T[k], c.U[k], c.V[k] = st.T[le][i], st.U[le][i], st.V[le][i]
				c.Qv[k] = st.QdpAt(le, 0)[i] / c.DP[k]
				c.Qc[k] = st.QdpAt(le, 1)[i] / c.DP[k]
				c.Qr[k] = st.QdpAt(le, 2)[i] / c.DP[k]
			}
			cl := math.Cos(e.Lat[n])
			c.Ps, c.Lat, c.Ts = ps, e.Lat[n], sst-sstDelta*(1-cl*cl)
			loaded = append(loaded, c)
			cols = append(cols, physics.NewColumn(cfg.Nlev))
		}
	}
	suite := physics.NewMoistSuite()
	dt := cfg.Dt * physEvery
	reload := func() {
		for i, c := range loaded {
			d := cols[i]
			copy(d.P, c.P)
			copy(d.DP, c.DP)
			copy(d.T, c.T)
			copy(d.U, c.U)
			copy(d.V, c.V)
			copy(d.Qv, c.Qv)
			copy(d.Qc, c.Qc)
			copy(d.Qr, c.Qr)
			d.Lat, d.Ts, d.Ps, d.Precip = c.Lat, c.Ts, c.Ps, 0
		}
	}
	ns := medianNs(9, reload, func() {
		for _, c := range cols {
			suite.Step(c, dt)
		}
	})
	ms.set("physics.column_us", ns/float64(len(cols))/1e3)
}

// dycorePass times the reference Solver's four phases on the global IC.
func dycorePass(ms *metricSet, f *passFixture) error {
	s, err := dycore.NewSolver(f.cfg)
	if err != nil {
		return err
	}
	st := f.ic.Clone()
	reload := func() { st.CopyFrom(f.ic) }
	for _, ph := range []struct {
		name string
		fn   func(*dycore.State)
	}{
		{"dyn", s.DynStep}, {"hypervis", s.HypervisStep}, {"tracer", s.TracerStep}, {"remap", s.RemapStep},
	} {
		fn := ph.fn
		ms.set("dycore."+ph.name+"_ms", medianNs(7, reload, func() { fn(st) })/1e6)
	}
	reload()
	ms.set("dycore.tracer_allocs", allocsPer(5, func() { s.TracerStep(st) }))
	return nil
}

// snapshotPass times the checkpoint store's codec and the integrity
// seal on rank 0's state.
func snapshotPass(ms *metricSet, f *passFixture) error {
	st := f.rank0
	var payload []float64
	var encErr error
	ms.set("core.snapshot_encode_us", medianNs(25, nil, func() {
		payload, encErr = core.EncodeRankSnapshot(st, 1)
	})/1e3)
	if encErr != nil {
		return encErr
	}
	var verr error
	ms.set("core.snapshot_verify_us", medianNs(25, nil, func() { verr = core.VerifyRankSnapshot(payload) })/1e3)
	var derr error
	ms.set("core.snapshot_decode_us", medianNs(25, nil, func() { _, _, derr = core.DecodeRankSnapshot(payload) })/1e3)
	if verr != nil || derr != nil {
		return fmt.Errorf("snapshot round trip: verify %v, decode %v", verr, derr)
	}
	var seal *integrity.RankSeal
	ms.set("integrity.seal_us", medianNs(50, nil, func() { seal = integrity.SealState(st, 1) })/1e3)
	var sealErr error
	ms.set("integrity.verify_us", medianNs(50, nil, func() { sealErr = seal.Verify(st) })/1e3)
	return sealErr
}
