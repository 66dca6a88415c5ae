package main

import (
	"fmt"
	"regexp"
)

// metricDef is one metric of the benchmark. End-to-end metrics carry
// the bound by which a change may worsen the parent's median before it
// counts as a regression; per-layer metrics have no bound and name the
// module whose work they count.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // share of the parent's median; 0 for metrics compare mode does not judge
}

// endToEnd are the metrics a user of the model sees, measured with
// tracing off and declared in BENCHMARK.json. Host time is on the
// process CPU clock, normalized to the reference host's speed by the
// calibration kernel (see calibrate): on a shared virtual machine the
// wall clock loses 0-40% to other guests (steal), and even CPU time
// drifts with the host's speed by more than 2x over an hour.
var endToEnd = []metricDef{
	{"chsy_norm", "core-h/sim-yr", "lower", 0.25},
	{"cycle_cpu_ms_p50_norm", "ms", "lower", 0.25},
	{"cycle_cpu_ms_p90_norm", "ms", "lower", 0.25},
	{"modeled_step_kcycles", "kcycles", "lower", 0.02},
	{"allocs_per_cycle", "count", "lower", 0.15},
	{"alloc_mb_per_cycle", "MB", "lower", 0.15},
	{"heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// asMeasured are the same host-time metrics before normalization, and on
// the wall clock in the paper's units. They are printed, kept in -out
// records and shown by compare mode, but neither declared in
// BENCHMARK.json nor judged: they move with the host's speed, which is
// what normalization divides out. failed_cycle_frac is printed beside
// them and carried in the result's attempted/failed counts: it is 0 on
// every healthy run, so a bound relative to the parent's is undefined.
var asMeasured = []metricDef{
	{name: "chsy", unit: "core-h/sim-yr", better: "lower"},
	{name: "cycle_cpu_ms_p50", unit: "ms", better: "lower"},
	{name: "cycle_cpu_ms_p90", unit: "ms", better: "lower"},
	{name: "calibration_ms", unit: "ms", better: "lower"},
	{name: "sypd", unit: "sim-years/day", better: "higher"},
	{name: "cycle_ms_p50", unit: "ms", better: "lower"},
	{name: "cycle_ms_p90", unit: "ms", better: "lower"},
}

// perLayer are the traced run's metrics, grouped by module. The layer
// → end-to-end → workload table in README.md says which end-to-end
// metric each should move and on which workload.
var perLayer = []metricDef{
	// sw: the SW26010 simulator's own host cost.
	{name: "sw.spawn_us", unit: "us", better: "lower"},
	{name: "sw.spawn_allocs", unit: "count", better: "lower"},
	{name: "sw.scan_us", unit: "us", better: "lower"},
	{name: "sw.transpose_us", unit: "us", better: "lower"},
	// exec host time per kernel call on rank 0's elements.
	{name: "exec.rhs_ms", unit: "ms", better: "lower"},
	{name: "exec.euler_ms", unit: "ms", better: "lower"},
	{name: "exec.dp1_ms", unit: "ms", better: "lower"},
	{name: "exec.dp2_ms", unit: "ms", better: "lower"},
	{name: "exec.remap_ms", unit: "ms", better: "lower"},
	// exec counts from the returned Cost (modeled SW26010 clock).
	{name: "exec.rhs_modeled_kcycles", unit: "kcycles", better: "lower"},
	{name: "exec.euler_modeled_kcycles", unit: "kcycles", better: "lower"},
	{name: "exec.dp1_modeled_kcycles", unit: "kcycles", better: "lower"},
	{name: "exec.dp2_modeled_kcycles", unit: "kcycles", better: "lower"},
	{name: "exec.remap_modeled_kcycles", unit: "kcycles", better: "lower"},
	{name: "exec.flops", unit: "count/step", better: "lower"},
	{name: "exec.mem_bytes", unit: "B/step", better: "lower"},
	{name: "exec.flops_per_byte", unit: "ratio", better: "higher"},
	{name: "exec.dma_ops", unit: "count/step", better: "lower"},
	{name: "exec.reg_msgs", unit: "count/step", better: "lower"},
	{name: "exec.launches", unit: "count/step", better: "lower"},
	{name: "exec.ldm_peak_bytes", unit: "B", better: "lower"},
	// halo exchange.
	{name: "halo.dss_overlap_us", unit: "us", better: "lower"},
	{name: "halo.dss_original_us", unit: "us", better: "lower"},
	{name: "halo.msgs_per_step", unit: "count/step", better: "lower"},
	{name: "halo.wire_bytes_per_step", unit: "B/step", better: "lower"},
	{name: "halo.wait_frac", unit: "ratio", better: "lower"},
	{name: "halo.overlap_ratio", unit: "ratio", better: "higher"},
	// mpirt message runtime.
	{name: "mpirt.allreduce_us", unit: "us", better: "lower"},
	{name: "mpirt.pingpong_us", unit: "us", better: "lower"},
	{name: "mpirt.msgs_per_step", unit: "count/step", better: "lower"},
	{name: "mpirt.bytes_per_step", unit: "B/step", better: "lower"},
	{name: "mpirt.coll_ops_per_step", unit: "count/step", better: "lower"},
	// physics.
	{name: "physics.column_us", unit: "us", better: "lower"},
	{name: "physics.columns_per_step", unit: "count/step", better: "lower"},
	{name: "physics.busy_frac", unit: "ratio", better: "lower"},
	// dycore reference Solver.
	{name: "dycore.dyn_ms", unit: "ms", better: "lower"},
	{name: "dycore.hypervis_ms", unit: "ms", better: "lower"},
	{name: "dycore.tracer_ms", unit: "ms", better: "lower"},
	{name: "dycore.remap_ms", unit: "ms", better: "lower"},
	{name: "dycore.tracer_allocs", unit: "count", better: "lower"},
	// core checkpoint store and supervisor.
	{name: "core.snapshot_encode_us", unit: "us", better: "lower"},
	{name: "core.snapshot_verify_us", unit: "us", better: "lower"},
	{name: "core.snapshot_decode_us", unit: "us", better: "lower"},
	{name: "core.checkpoints_per_cycle", unit: "count/cycle", better: "lower"},
	{name: "core.recovery_ms_per_cycle", unit: "ms/cycle", better: "lower"},
	{name: "core.buddy_mb_per_cycle", unit: "MB/cycle", better: "lower"},
	{name: "core.rollbacks", unit: "count/segment", better: "lower"},
	{name: "core.poisoned", unit: "count/segment", better: "lower"},
	// integrity defenses.
	{name: "integrity.seal_us", unit: "us", better: "lower"},
	{name: "integrity.verify_us", unit: "us", better: "lower"},
	{name: "integrity.flips_injected", unit: "count/segment", better: "higher"},
	{name: "integrity.detected", unit: "count/segment", better: "higher"},
	{name: "integrity.detect_ratio", unit: "ratio", better: "higher"},
	{name: "integrity.scrub_frac", unit: "ratio", better: "lower"},
	// critical path of the traced cycles (means per cycle; the parts sum
	// to critical.cycle_ms).
	{name: "critical.cycle_ms", unit: "ms", better: "lower"},
	{name: "critical.exec_ms", unit: "ms", better: "lower"},
	{name: "critical.halo_ms", unit: "ms", better: "lower"},
	{name: "critical.halo_wait_ms", unit: "ms", better: "lower"},
	{name: "critical.coll_ms", unit: "ms", better: "lower"},
	{name: "critical.physics_ms", unit: "ms", better: "lower"},
	{name: "critical.dycore_ms", unit: "ms", better: "lower"},
	{name: "critical.ckpt_ms", unit: "ms", better: "lower"},
	{name: "critical.unattributed_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// countMetrics are the per-layer (and end-to-end) metrics that count
// work rather than time it: they must repeat exactly between runs of
// the same code.
var countMetrics = []string{
	"modeled_step_kcycles",
	"exec.rhs_modeled_kcycles", "exec.euler_modeled_kcycles", "exec.dp1_modeled_kcycles",
	"exec.dp2_modeled_kcycles", "exec.remap_modeled_kcycles",
	"exec.flops", "exec.mem_bytes", "exec.flops_per_byte", "exec.dma_ops",
	"exec.reg_msgs", "exec.launches", "exec.ldm_peak_bytes",
	"halo.msgs_per_step", "halo.wire_bytes_per_step",
	"mpirt.msgs_per_step", "mpirt.bytes_per_step", "mpirt.coll_ops_per_step",
	"physics.columns_per_step",
	"core.checkpoints_per_cycle", "core.rollbacks", "core.poisoned",
	"integrity.flips_injected", "integrity.detected", "integrity.detect_ratio",
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values in the order of a definition list.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	na     map[string]string // metric -> why it is n/a on this workload
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, na: map[string]string{}}
}

func (s *metricSet) set(name string, v float64) {
	if _, ok := s.def(name); !ok {
		panic(fmt.Sprintf("swbench: undeclared metric %q", name))
	}
	s.values[name] = v
}

// notApplicable records 0 for a metric whose layer does no work on this
// workload, with the reason printed beside it.
func (s *metricSet) notApplicable(name, why string) {
	s.set(name, 0)
	s.na[name] = why
}

func (s *metricSet) def(name string) (metricDef, bool) {
	for _, d := range s.defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// json returns the result's metrics object; every declared metric must
// have been set.
func (s *metricSet) json() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(s.defs))
	for _, d := range s.defs {
		v, ok := s.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
