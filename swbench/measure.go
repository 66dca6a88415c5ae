package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"swcam/internal/core"
	"swcam/internal/obs"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, so one slow build (a GC, a page fault storm) does not set
// it.
const setupRepeats = 15

// cpuNs returns the process's user+system CPU time. On a shared virtual
// machine it excludes the time the hypervisor gave the CPUs to other
// guests (steal), which wall time includes.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// calRefMs is the CPU time the calibration kernel takes on the
// reference host: the 2-vCPU Xeon box the baseline in README.md was
// measured on, in its fast phase. Normalized metrics read as they would
// on a host where the kernel takes exactly calRefMs.
const calRefMs = 14.0

// calAlpha is the host-speed model's exponent: a driver's CPU time
// scales as the calibration kernel's to this power. The kernel is a
// dependent chain, and when the host slows (another guest busy on the
// same physical core) such a chain slows less than the drivers'
// independent floating-point and memory work: between two observed
// host phases the kernel slowed 1.56-1.61x while the drivers' cycles
// slowed 2.22-2.36x, elasticities 1.69-1.83; athread-dyn, which mostly
// schedules goroutines, came out near 1.3. 1.6 keeps every workload's
// residual shift within about 20% across such a phase change, against
// 40-50% with plain division (README.md, "Why normalized").
const calAlpha = 1.6

var calSink float64

// calibrate times a fixed workload that calls no swcam code, on the CPU
// clock: a loop-carried multiply-add and a square root over 8 MB, more
// than the per-core caches hold, like the drivers' state and scratch.
// Of the kernels tried (this chain, an L2-resident slab stencil, an
// allocation and GC loop, a pointer chase), it tracked the drivers'
// cycle time best cycle by cycle, and it is the quietest. A change to
// swcam cannot move it.
func calibrate() float64 {
	buf := make([]float64, 1<<20) // filled before the clock starts: no page faults timed
	for i := range buf {
		buf[i] = float64(i%97) * 1e-3
	}
	c0 := cpuNs()
	s := 0.0
	for rep := 0; rep < 4; rep++ {
		for i := 1; i < len(buf); i++ {
			buf[i] = buf[i]*0.999 + buf[i-1]*1e-3
			s += math.Sqrt(buf[i] + 1)
		}
	}
	calSink = s
	return float64(cpuNs()-c0) / 1e6
}

// measurement is what one timed loop observed.
type measurement struct {
	cycleNs   []int64   // wall time of every timed cycle
	cpuNs     []int64   // process CPU time of every timed cycle
	calMs     []float64 // calibration kernel CPU time before each segment
	attempted int       // cycles attempted
	failed    int       // cycles that errored or failed the output check
	segments  int       // whole segments completed
	hashes    []uint64
	// Heap objects and MB allocated per cycle inside each segment's
	// timed cycles.
	segAllocs, segAllocMB []float64
	failures              []string
}

// allocCounters reads the cumulative heap allocation counters.
func allocCounters(s []metrics.Sample) (objects, bytes uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func allocSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
}

// liveHeapMB forces a GC and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// timedLoop runs whole segments of cyclesPerSegment cycles until budget
// has elapsed (and at least minSegments ran), timing every cycle alone.
// Between segments the runner is reset, untimed, and the segment's
// final state is checked: State.Check must pass, the runner's own
// segment check must pass, and the FNV-64 hash must equal want (when
// given). A segment is never cut short, so every segment has the same
// shape and the same hash. A cycle that errors fails, and the rest of
// its segment is abandoned; a segment that fails its output check
// fails all its cycles. With tr set, each cycle is a bench.cycle span.
func timedLoop(r runner, budget time.Duration, minSegments int, want *uint64, tr *obs.Tracer) measurement {
	var m measurement
	samples := allocSamples()
	maxWind := dycoreConfig().CFLMaxWind(0.9)
	start := time.Now()
	for m.segments < minSegments || time.Since(start) < budget {
		// Untimed: the calibration kernel samples the host's current
		// speed, and every segment starts from a collected heap (the
		// kernel's garbage included), so the collector's cycles fall at
		// the same points of every segment.
		m.calMs = append(m.calMs, calibrate())
		runtime.GC()
		var err error
		o0, b0 := allocCounters(samples)
		for c := 0; c < cyclesPerSegment && err == nil; c++ {
			m.attempted++
			sp := tr.Begin(benchPid, "bench.cycle", "bench")
			c0, t0 := cpuNs(), time.Now()
			err = r.cycle()
			m.cycleNs = append(m.cycleNs, time.Since(t0).Nanoseconds())
			m.cpuNs = append(m.cpuNs, cpuNs()-c0)
			sp.End()
			if err != nil {
				m.failed++
				err = fmt.Errorf("cycle %d: %w", c, err)
			}
		}
		o1, b1 := allocCounters(samples)
		if err == nil {
			m.segAllocs = append(m.segAllocs, float64(o1-o0)/cyclesPerSegment)
			m.segAllocMB = append(m.segAllocMB, float64(b1-b0)/1e6/cyclesPerSegment)
			g := r.final()
			h := core.StateFNV(g)
			m.hashes = append(m.hashes, h)
			err = g.Check(maxWind)
			if err == nil {
				err = r.endSegment()
			}
			if err == nil && want != nil && h != *want {
				err = fmt.Errorf("final state hash %016x, reference %016x", h, *want)
			}
			if err != nil {
				m.failed += cyclesPerSegment
			}
		}
		if err != nil {
			m.failures = append(m.failures, fmt.Sprintf("segment %d: %v", m.segments, err))
		}
		m.segments++
		if err := r.reset(); err != nil {
			m.failures = append(m.failures, fmt.Sprintf("reset after segment %d: %v", m.segments, err))
			m.attempted++
			m.failed++
			break
		}
	}
	return m
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(ns []int64) float64 {
	var tot int64
	for _, v := range ns {
		tot += v
	}
	return float64(tot)
}

// speedFactor converts the run's CPU times to the reference host's.
func (m measurement) speedFactor() float64 { return math.Pow(calRefMs/median(m.calMs), calAlpha) }

// simYears is the simulated time of n cycles in years.
func simYears(n int) float64 {
	return float64(n*stepsPerCycle) * dycoreConfig().Dt / (365 * 86400)
}
