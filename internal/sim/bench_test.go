package sim

import "testing"

// The engine microbenchmarks exercise the two-tier queue's three regimes:
//
//   - Grid: every event lands on the slot grid (500µs TTI), the fronthaul
//     workload's shape — near-future, heavily tied timestamps that stay in
//     the calendar tier's ring buckets.
//   - OffGrid: uniformly scattered sub-window offsets — still calendar
//     tier, but scheduled out of time order, so a push can land ahead of
//     its bucket's tail instead of appending.
//   - Mixed: the metro engine's real blend — mostly near-future grid
//     events plus a tail of far-future timers that go through the 4-ary
//     heap tier and are merged with the bucket heads on every pop.
//
// All three run the full schedule→fire cycle through the pooled (no
// handle) path and must not allocate: the event structs recycle through
// the engine free list and the calendar links them through Event.next.

// benchLoop schedules and drains nPer events per step using offs[i] as
// each event's delay, forever reusing one engine.
func benchLoop(b *testing.B, offs []Time) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range offs {
			e.AfterPooled(d, "bench", fn)
		}
		for e.Step() {
		}
	}
	if fired != b.N*len(offs) {
		b.Fatalf("fired %d events, want %d", fired, b.N*len(offs))
	}
}

func BenchmarkEngineStepGrid(b *testing.B) {
	const tti = 500 * Microsecond
	offs := make([]Time, 64)
	for i := range offs {
		offs[i] = Time(i%8) * tti // 8 slots, 8 events tied per slot
	}
	benchLoop(b, offs)
}

func BenchmarkEngineStepOffGrid(b *testing.B) {
	offs := make([]Time, 64)
	r := NewRNG(1)
	for i := range offs {
		offs[i] = Time(r.Intn(4 * int(Millisecond))) // scattered, calendar tier
	}
	benchLoop(b, offs)
}

func BenchmarkEngineStepMixed(b *testing.B) {
	offs := make([]Time, 64)
	r := NewRNG(2)
	for i := range offs {
		if i%8 == 0 {
			// Far-future timer past the calendar window: heap tier.
			offs[i] = 40*Millisecond + Time(r.Intn(int(100*Millisecond)))
		} else {
			offs[i] = Time(r.Intn(2 * int(Millisecond)))
		}
	}
	benchLoop(b, offs)
}

// BenchmarkEngineScheduleCancel measures the handle-returning At path plus
// Remove-driven lazy deletion: half the scheduled events are removed
// before the drain, the shape of HARQ/timeout timers that almost always
// cancel. Handle events are not recycled (the free list would break the
// stale-handle safety contract), so the per-event struct allocation is
// expected and asserted at exactly 1.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	evs := make([]*Event, 64)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			evs[j] = e.After(Time(j)*Microsecond, "bench", fn)
		}
		for j := 0; j < len(evs); j += 2 {
			e.Remove(evs[j])
		}
		for e.Step() {
		}
	}
}

// TestEngineStepBenchmarksDoNotAllocate pins the pooled schedule→fire
// cycle at zero allocations per event in all three queue regimes. This is
// the alloc gate the microbenchmarks report; asserting it in a test keeps
// `go test` (not just bench runs) guarding it.
func TestEngineStepBenchmarksDoNotAllocate(t *testing.T) {
	shapes := map[string][]Time{
		"grid":    {0, 0, 500 * Microsecond, 500 * Microsecond, Millisecond},
		"offgrid": {17 * Microsecond, 341 * Microsecond, 3 * Millisecond},
		"mixed":   {5 * Microsecond, 700 * Microsecond, 90 * Millisecond},
	}
	for name, offs := range shapes {
		e := NewEngine()
		fn := func() {}
		// Warm: populate the free list and touch the calendar buckets.
		for r := 0; r < 4; r++ {
			for _, d := range offs {
				e.AfterPooled(d, "warm", fn)
			}
			for e.Step() {
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			for _, d := range offs {
				e.AfterPooled(d, "t", fn)
			}
			for e.Step() {
			}
		})
		if avg > 0 {
			t.Errorf("%s: pooled schedule→fire cycle allocated %.2f/run, want 0", name, avg)
		}
	}
}
