package sim

import (
	"runtime"
	"slices"
	"testing"
)

// White-box tests of the calendar tier's intrusive bucket chains. The
// randomized differential suite pins the whole engine to the reference
// heap; these pin each chain-insertion branch and the calendar's retained
// footprint directly.

// chainOf returns the labels along the bucket chain holding time at, head
// to tail, and checks the tail pointer and occupancy bit agree with it.
func chainOf(t *testing.T, e *Engine, at Time) []string {
	t.Helper()
	b := int(int64(at)>>bucketShift) & bucketMask
	c := e.q.buckets[b]
	var names []string
	var last *Event
	for ev := c.head; ev != nil; ev = ev.next {
		names = append(names, ev.Name)
		last = ev
	}
	if c.tail != last {
		t.Fatalf("bucket %d tail %v, want last chain element %v", b, c.tail, last)
	}
	if occupied := e.q.occ[b>>6]&(1<<(b&63)) != 0; occupied != (c.head != nil) {
		t.Fatalf("bucket %d occupancy bit %v with head %v", b, occupied, c.head)
	}
	return names
}

// recorder schedules events whose callbacks append their own label to
// *fired, so a test can compare the chain order with the fire order.
func recorder(e *Engine, fired *[]string) func(at Time, name string) *Event {
	return func(at Time, name string) *Event {
		return e.At(at, name, func() { *fired = append(*fired, name) })
	}
}

func TestCalendarChainInsertBeforeHead(t *testing.T) {
	e := NewEngine()
	var fired []string
	at := recorder(e, &fired)
	at(30, "c")
	at(20, "b")
	at(10, "a")
	want := []string{"a", "b", "c"}
	if got := chainOf(t, e, 0); !slices.Equal(got, want) {
		t.Fatalf("chain %v, want %v", got, want)
	}
	e.Run()
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if got := chainOf(t, e, 0); len(got) != 0 {
		t.Fatalf("drained bucket still chains %v", got)
	}
}

func TestCalendarChainInsertMidChain(t *testing.T) {
	e := NewEngine()
	var fired []string
	at := recorder(e, &fired)
	at(10, "a")
	at(40, "d")
	at(30, "c") // walks past a, lands before d
	at(20, "b") // walks past a, lands before c
	want := []string{"a", "b", "c", "d"}
	if got := chainOf(t, e, 0); !slices.Equal(got, want) {
		t.Fatalf("chain %v, want %v", got, want)
	}
	e.Run()
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestCalendarChainEqualAtFIFO inserts into the middle of a run of equal
// fire times: the newcomer has the largest seq, so it must land after
// every equal-At entry already chained, not merely after the first.
func TestCalendarChainEqualAtFIFO(t *testing.T) {
	e := NewEngine()
	var fired []string
	at := recorder(e, &fired)
	at(10, "a")
	at(20, "b1")
	at(20, "b2")
	at(30, "c")
	at(20, "b3") // mid-chain, after b1 and b2
	at(10, "a2") // mid-chain, after a
	want := []string{"a", "a2", "b1", "b2", "b3", "c"}
	if got := chainOf(t, e, 0); !slices.Equal(got, want) {
		t.Fatalf("chain %v, want %v", got, want)
	}
	e.Run()
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestCalendarRemoveMidChain removes an event from the middle of a chain:
// Pending and the snapshot drop it at once, it never fires, and the
// struct is unlinked when it surfaces at the head.
func TestCalendarRemoveMidChain(t *testing.T) {
	e := NewEngine()
	var fired []string
	at := recorder(e, &fired)
	at(10, "a")
	mid := at(20, "b")
	at(30, "c")
	e.Remove(mid)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after Remove, want 2", e.Pending())
	}
	for _, q := range e.QueueSnapshot() {
		if q.Name == "b" {
			t.Fatalf("removed event still in snapshot: %+v", q)
		}
	}
	if got, want := chainOf(t, e, 0), []string{"a", "b", "c"}; !slices.Equal(got, want) {
		t.Fatalf("chain %v, want %v (removal is lazy)", got, want)
	}
	e.Run()
	if want := []string{"a", "c"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if mid.queued || mid.next != nil {
		t.Fatalf("removed event still linked: queued=%v next=%v", mid.queued, mid.next)
	}
	if got := chainOf(t, e, 0); len(got) != 0 {
		t.Fatalf("drained bucket still chains %v", got)
	}
}

// TestCalendarCanceledPastDeadline: a canceled (not removed) event later
// than RunUntil's deadline is still popped when it reaches the head — it
// leaves Pending and, if pooled, returns to the free list — while the
// clock stops at the deadline and nothing fires.
func TestCalendarCanceledPastDeadline(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	e.At(5*Millisecond, "handle", fn).Cancel()
	e.AtPooled(6*Millisecond, "pooled", fn)
	pooled := e.q.buckets[int(int64(6*Millisecond)>>bucketShift)&bucketMask].head
	pooled.Cancel() // no caller holds a pooled handle; reach it in the chain
	e.At(7*Millisecond, "live", fn)
	e.RunUntil(Millisecond)
	if fired != 0 {
		t.Fatalf("fired %d events before their time", fired)
	}
	if e.Now() != Millisecond {
		t.Fatalf("clock %v, want %v", e.Now(), Millisecond)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (only the live event)", e.Pending())
	}
	if len(e.free) != 1 || e.free[0] != pooled {
		t.Fatalf("free list %v, want the canceled pooled event", e.free)
	}
	if pooled.next != nil || pooled.queued {
		t.Fatalf("recycled event still linked: queued=%v next=%v", pooled.queued, pooled.next)
	}
	e.RunUntil(10 * Millisecond)
	if fired != 1 || e.Pending() != 0 {
		t.Fatalf("fired %d, Pending %d; want 1, 0", fired, e.Pending())
	}
}

// TestCalendarDrainRetainsNoCapacity pins the calendar's footprint to its
// pending events: an engine that held a 10,000-event burst in one bucket
// and drained it keeps no more heap than a fresh engine (within a small
// slack for runtime noise), so a fleet's per-cell cost does not grow with
// its busiest moment.
func TestCalendarDrainRetainsNoCapacity(t *testing.T) {
	const burst, slack = 10000, 16 << 10
	heapAlloc := func() int64 {
		// Two cycles: the first moves sync.Pool caches to their victim
		// generation, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// footprint is the GC'd heap an engine built by build keeps alive.
	footprint := func(build func() *Engine) int64 {
		h0 := heapAlloc()
		engineSink = build()
		h1 := heapAlloc()
		engineSink = nil
		return h1 - h0
	}
	fresh := footprint(NewEngine)
	drained := footprint(func() *Engine {
		e := NewEngine()
		noop := func() {}
		for i := 0; i < burst; i++ {
			e.At(Time(i), "burst", noop) // all in bucket 0
		}
		e.Run()
		if e.Processed != burst {
			t.Fatalf("fired %d of %d events", e.Processed, burst)
		}
		return e
	})
	t.Logf("fresh engine %d B, drained engine %d B", fresh, drained)
	if drained-fresh > slack {
		t.Fatalf("drained engine keeps %d B, a fresh one %d B: %d B retained, want <= %d",
			drained, fresh, drained-fresh, slack)
	}
}

// engineSink keeps a measured engine reachable (and heap-allocated) across
// the GC that samples it.
var engineSink *Engine
