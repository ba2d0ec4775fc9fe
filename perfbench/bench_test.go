package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"slingshot/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{7}, 1, 7},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 0.1, 1},
		{hundred, 99, 99},
		{hundred, 1, 1},
		{[]float64{1, 2}, 50, 1},
	} {
		if got := percentile(append([]float64(nil), tc.xs...), tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
}

// The step percentiles take each step's median across iterations first,
// so a one-off slow step in one iteration does not reach the tail, while a
// step that is slow in every iteration does.
func TestStepPercentileMediansAcrossIterations(t *testing.T) {
	s := &sample{stepUs: [][]float64{
		{10, 10, 50, 10},
		{10, 900, 50, 10},
		{10, 10, 50, 10},
	}}
	if got := s.stepPercentile(100); got != 50 {
		t.Errorf("stepPercentile(100) = %v, want 50 (the transient 900 filtered)", got)
	}
	if got := s.stepPercentile(50); got != 10 {
		t.Errorf("stepPercentile(50) = %v, want 10", got)
	}
	// A shorter iteration (one that failed mid-run) only votes on the
	// steps it reached.
	s.stepUs = append(s.stepUs, []float64{70})
	if got := s.stepPercentile(25); got != 10 {
		t.Errorf("stepPercentile(25) with a short iteration = %v, want 10", got)
	}
	if got := (&sample{}).stepPercentile(99); got != 0 {
		t.Errorf("stepPercentile on no steps = %v, want 0", got)
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Exp", "slingshot/internal/dsp.(*Channel).Transmit", "slingshot/internal/ue.(*UE).PullUplink"}, "dsp"},
		{[]string{"runtime.mallocgc", "slingshot/internal/mem.(*Pool[go.shape.struct {}]).Get", "slingshot/internal/phy.(*PHY).drain"}, "mem"},
		{[]string{"slingshot/internal/fec.(*Code).decodeSoA", "slingshot/internal/par.(*batchState).run", "slingshot/internal/par.worker"}, "fec"},
		{[]string{"runtime.gopark", "slingshot/internal/par.ForEach"}, "shard"},
		{[]string{"slingshot/internal/traffic.Marshal"}, "ue"},
		{[]string{"slingshot/internal/fapi.Decode"}, "orion"},
		{[]string{"slingshot/internal/harq.(*Pool).Combine"}, "l2"},
		{[]string{"slingshot/internal/rlc.(*Receiver).Push"}, "l2"},
		{[]string{"slingshot/internal/ckpt.Encode"}, "core"},
		{[]string{"slingshot/internal/core.(*Deployment).wireCell.func1"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"runtime.nanotime", "main.runIteration", "main.main"}, "bench"},
		{[]string{"time.Now", "main.(*spanThread).enter", "main.(*timedReceiver).HandleFrame", "slingshot/internal/netmodel.(*Link).Send.func1"}, "bench"},
		{[]string{"slingshot/internal/switchsim.(*Switch).HandleFrame", "main.(*timedReceiver).HandleFrame", "slingshot/internal/netmodel.(*Link).Send.func1"}, "switchsim"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := sampleLayer(tc.stack); got != tc.want {
			t.Errorf("sampleLayer(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		if s.ns <= 0 {
			t.Fatalf("sample with non-positive CPU time %d", s.ns)
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample of %d names spinForProfile", len(p.samples))
	}
	var sum float64
	for _, v := range bucketProfile(p) {
		sum += v
	}
	if sum < 99.999 || sum > 100.001 {
		t.Fatalf("layer shares sum to %v, want 100", sum)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}

func TestPBFieldsRejectsTruncation(t *testing.T) {
	// Field 6 (bytes) claiming 5 bytes with only 2 present.
	if err := pbFields([]byte{6<<3 | 2, 5, 'a', 'b'}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Fatal("truncated bytes field accepted")
	}
	var got []uint64
	// Field 1 packed {1, 300}.
	err := pbFields([]byte{1<<3 | 2, 3, 1, 0xac, 0x02}, func(f int, v uint64, b []byte) error {
		return pbUints(v, b, func(x uint64) { got = append(got, x) })
	})
	if err != nil || len(got) != 2 || got[0] != 1 || got[1] != 300 {
		t.Fatalf("packed varints = %v, %v; want [1 300]", got, err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the driver's metric tables, the
// contract's name and unit grammars and BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer, append(append([]metricDef(nil), endToEnd...), perLayer...)} {
		if err := checkDefs(defs); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []metricDef{{name: "_x", unit: "s"}, {name: "a b", unit: "s"}, {name: "x", unit: "µs"}, {name: strings.Repeat("x", 65), unit: "s"}} {
		if checkDefs([]metricDef{bad}) == nil {
			t.Errorf("checkDefs accepted %+v", bad)
		}
	}
	if checkDefs([]metricDef{{name: "x", unit: "s"}, {name: "x", unit: "s"}}) == nil {
		t.Error("checkDefs accepted a repeated name")
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the driver reports %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the driver %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, driver workloads %v", names, workloadNames())
	}
}

func TestNewResultRequiresEveryMetric(t *testing.T) {
	defs := []metricDef{{name: "a", unit: "s"}, {name: "b", unit: "s"}}
	if _, err := newResult(1, 0, defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := newResult(1, 0, defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("extra metric accepted")
	}
	nan := 0.0
	if _, err := newResult(1, 0, defs, map[string]float64{"a": 1, "b": nan / nan}); err == nil {
		t.Error("NaN accepted")
	}
	r, err := newResult(3, 1, defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || r.Correct || r.Attempted != 3 || r.Failed != 1 {
		t.Fatalf("newResult = %+v, %v", r, err)
	}
	out, err := r.render(defs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var back result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &back); err != nil || back.Metrics["b"].Value != 2 {
		t.Fatalf("last line %q does not decode to the result: %v", lines[len(lines)-1], err)
	}
}

// stubWorkload runs a fixed number of steps; its fingerprint changes on
// every iteration when drift is set.
type stubWorkload struct {
	drift *int
	steps int
	err   error
}

func (w *stubWorkload) setup(uint64, *tracer) error { return nil }
func (w *stubWorkload) cells() int                  { return 1 }
func (w *stubWorkload) step() (bool, error) {
	w.steps++
	return w.steps == 10, nil
}
func (w *stubWorkload) finish() (outcome, error) {
	o := outcome{digest: "stub"}
	if w.drift != nil {
		*w.drift++
		o.digest = strings.Repeat("x", *w.drift)
	}
	return o, w.err
}

func TestFailureCounting(t *testing.T) {
	var log strings.Builder
	drift := 0
	s, err := measure(func() workload { return &stubWorkload{drift: &drift} }, 1, 20*time.Millisecond, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.its) < 2 || s.failed != len(s.its)-1 {
		t.Errorf("drifting fingerprint: %d failed of %d, want all but the first", s.failed, len(s.its))
	}

	s, err = measure(func() workload { return &stubWorkload{err: errors.New("boom")} }, 1, 20*time.Millisecond, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != len(s.its) {
		t.Errorf("erroring finish: %d failed of %d, want all", s.failed, len(s.its))
	}

	s, err = measure(func() workload { return &stubWorkload{} }, 1, 20*time.Millisecond, nil, &log)
	if err != nil || s.failed != 0 {
		t.Errorf("clean stub: %d failed, %v", s.failed, err)
	}
}

// TestRogueViolationFails forces an invariant violation in a small fleet
// with shard.Config.RogueAt: every iteration must count as failed, while
// the same fleet without it runs clean.
func TestRogueViolationFails(t *testing.T) {
	var log strings.Builder
	s, err := measure(func() workload { return &metroSparse{size: 4, rogueAt: 80 * sim.Millisecond} }, 3, time.Millisecond, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != len(s.its) || !strings.Contains(log.String(), "invariant violations") {
		t.Fatalf("rogue fleet: %d failed of %d; log:\n%s", s.failed, len(s.its), log.String())
	}
	s, err = measure(func() workload { return &metroSparse{size: 4} }, 3, time.Millisecond, nil, &log)
	if err != nil || s.failed != 0 {
		t.Fatalf("clean fleet: %d failed, %v", s.failed, err)
	}
}

// TestTracingKeepsFingerprint checks that the traced run's wrappers leave
// every virtual-time output unchanged.
func TestTracingKeepsFingerprint(t *testing.T) {
	var log strings.Builder
	mk := func() workload { return &metroSparse{size: 4} }
	plain, err := measure(mk, 5, time.Millisecond, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := measure(mk, 5, time.Millisecond, tr, &log)
	if err != nil {
		t.Fatal(err)
	}
	if plain.its[0].fingerprint != traced.its[0].fingerprint {
		t.Fatalf("traced fingerprint %016x, untraced %016x", traced.its[0].fingerprint, plain.its[0].fingerprint)
	}
	agg := tr.totals()
	for _, l := range []int{spanStep, spanSwitch, spanPHY, spanRU, spanOrion, spanL2} {
		if agg[l].count == 0 {
			t.Errorf("no %s spans recorded", spanNames[l])
		}
	}
}
