package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names
// and units; TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run (--trace 0) prints for every
// workload. Host-time metrics first, then the virtual-time ones, which are
// deterministic for a seed and also enter the fingerprint.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "cell_tti_per_s", unit: "1/s"},
	{name: "step_p50_us", unit: "us"},
	{name: "step_p99_us", unit: "us"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "goodput_mbps", unit: "Mb/s"},
	{name: "availability_pct", unit: "%"},
}

// cpuLayers are the CPU-profile buckets, in print order. Each names the
// layer a sample's innermost slingshot/internal frame belongs to (see
// moduleLayer); "bench" is this driver, "other" is runtime and standard
// library time with no internal caller. With runtime.gc_cpu_pct they sum
// to 100.
var cpuLayers = []string{
	"fec", "dsp", "ue", "fronthaul", "sim", "orion", "shard", "mem",
	"switchsim", "l2", "phy", "ru", "netmodel", "chaos", "core", "bench", "other",
}

// perLayer are the metrics a traced run (--trace 1) prints.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{name: l + ".cpu_pct", unit: "%"})
	}
	return append(out, []metricDef{
		{name: "runtime.gc_cpu_pct", unit: "%"},
		{name: "runtime.gc_pause_p99_us", unit: "us"},
		{name: "fec.work_units_per_cell_tti", unit: "count"},
		{name: "fec.decode_fail_pct", unit: "%"},
		{name: "sim.events_per_cell_tti", unit: "count"},
		{name: "phy.null_slot_pct", unit: "%"},
		{name: "netmodel.frames_per_cell_tti", unit: "count"},
		{name: "l2.harq_retx_pct", unit: "%"},
		{name: "mem.alloc_bytes_per_cell_tti", unit: "B"},
		{name: "mem.mallocs_per_cell_tti", unit: "count"},
		{name: "par.core_util_pct", unit: "%"},
		{name: "switchsim.frame_ns", unit: "ns"},
		{name: "orion.frame_ns", unit: "ns"},
		{name: "phy.frame_ns", unit: "ns"},
		{name: "ru.frame_ns", unit: "ns"},
		{name: "l2.fapi_ns", unit: "ns"},
		{name: "trace.overhead_pct", unit: "%"},
	}...)
}()

// validName and validUnit are the benchmark contract's name and unit
// grammars.
var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs rejects a metric table with a bad or repeated name or unit.
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !validName.MatchString(d.name) {
			return fmt.Errorf("metric name %q breaks the name grammar", d.name)
		}
		if !validUnit.MatchString(d.unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs: the
// smallest value with at least p% of the samples at or below it. xs is
// sorted in place. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the nearest-rank 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult assembles the result line from the measured values, requiring
// exactly one finite value per metric in defs.
func newResult(attempted, failed int, defs []metricDef, values map[string]float64) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return r, fmt.Errorf("%d values measured for %d metrics", len(values), len(defs))
	}
	return r, nil
}

// render prints the result as human-readable lines followed by the JSON
// line the benchmark contract reads.
func (r result) render(defs []metricDef) (string, error) {
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "metric %-30s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(&b, "verdict correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	js, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	b.Write(js)
	b.WriteByte('\n')
	return b.String(), nil
}
