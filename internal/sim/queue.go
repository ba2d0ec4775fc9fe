package sim

import "math/bits"

// Two-tier event queue (DESIGN.md §15). The discrete-event workload is
// dominated by grid-aligned events — slot ticks every TTI, fronthaul
// offsets inside the slot, HARQ and RLF timers a few milliseconds out —
// so the fast path is a calendar queue: a ring of fixed-width time
// buckets covering a sliding ~33 ms window, each bucket an intrusive
// chain (Event.next) kept sorted by the engine's canonical (At, seq) key.
// Popping the head of the first occupied bucket is O(1); an occupancy
// bitmap makes "first occupied bucket" a handful of word tests. Events
// scheduled beyond the window (chaos at +2.6 s, TCP RTOs, upgrade holds)
// go to a backing 4-ary min-heap specialized to *Event — no
// container/heap interface boxing, no per-element method calls — and are
// merged by comparing the bucket head against the heap root on every pop.
// The calendar tier stores nothing but the pending events themselves, so
// a drained burst leaves no capacity behind.
//
// Ordering proof sketch: every pop takes the lexicographic (At, seq)
// minimum of {head of first occupied bucket, heap root}. Bucket chains
// are fully sorted by (At, seq) (upper-bound insert on push), live events
// in one bucket all share the same At>>bucketShift generation, and the
// circular scan from the clock's own bucket visits generations in
// increasing order, so the first occupied bucket's head is the minimum
// across all buckets. The heap root is the minimum of the heap tier by
// the sift invariant. Hence the queue pops the exact total order the
// seed's single binary heap produced, including equal-time FIFO ties —
// seq assignment in At/push is untouched.
//
// Cancel/Remove use lazy deletion: Remove marks the event and decrements
// the live count immediately (Pending and QueueSnapshot observe the
// removal at once, matching the old eager heap.Remove), while the struct
// stays in its tier until it surfaces at a head and is discarded.
const (
	// bucketShift gives 65.536 µs buckets — ~7.6 per 500 µs TTI, so one
	// slot's grid (tick, fronthaul offsets, drain) spreads over several
	// buckets instead of piling into one.
	bucketShift = 16
	// numBuckets fixes the calendar window at numBuckets<<bucketShift ≈
	// 33.6 ms — wide enough for every per-slot, HARQ, RLF and supervise
	// timer; only long chaos/upgrade/RTO timers fall through to the heap.
	numBuckets = 512
	bucketMask = numBuckets - 1
	occWords   = numBuckets / 64
)

// before is the canonical scheduling order: fire time, then FIFO by
// sequence number. It is the single comparison both tiers use.
func before(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// chain is one calendar bucket: a singly linked list through Event.next,
// sorted by (At, seq). Both ends are nil when the bucket is empty.
type chain struct {
	head, tail *Event
}

// calQueue is the two-tier pending-event store. The zero value is ready
// to use.
type calQueue struct {
	// cur is the global (non-wrapped) bucket index the sweep has
	// reached: no live event exists in any bucket generation below it.
	cur int64
	// live counts queued, non-removed events across both tiers —
	// exactly the old physical heap length (canceled events count until
	// they fire; removed events stop counting at Remove).
	live    int
	heap    []*Event
	occ     [occWords]uint64
	buckets [numBuckets]chain
}

// srcHeap is the tier marker min returns for heap-root candidates;
// non-negative sources are bucket ring positions.
const srcHeap = -1

// advance moves cur up to the clock's bucket. The clock may have advanced
// past cur without pops (RunUntil to an idle barrier); live events never
// exist behind now.
func (q *calQueue) advance(now Time) {
	if nowK := int64(now) >> bucketShift; q.cur < nowK {
		q.cur = nowK
	}
}

// push queues ev, routing by distance from the calendar window's base.
// The caller has already (re)initialized At/seq/flags via Engine.push;
// ev.next is nil because take clears it.
func (q *calQueue) push(ev *Event, now Time) {
	ev.queued, ev.removed = true, false
	q.live++
	q.advance(now)
	k := int64(ev.At) >> bucketShift
	if k-q.cur >= numBuckets {
		q.heapPush(ev)
		return
	}
	b := int(k & bucketMask)
	c := &q.buckets[b]
	switch {
	case c.head == nil:
		c.head, c.tail = ev, ev
		q.occ[b>>6] |= 1 << (b & 63)
	case !before(ev, c.tail):
		// Common case: monotone arrival within the bucket.
		c.tail.next, c.tail = ev, ev
	case before(ev, c.head):
		ev.next, c.head = c.head, ev
	default:
		// Upper-bound walk: the new event carries the largest seq, so it
		// lands after every equal-At entry, preserving FIFO ties. The
		// walk stops before the tail, which orders after ev.
		p := c.head
		for !before(ev, p.next) {
			p = p.next
		}
		ev.next, p.next = p.next, ev
	}
}

// min returns the next event in (At, seq) order without removing it,
// plus its tier (bucket ring position, or srcHeap). Removed events are
// included — popDue discards them. Returns nil when both tiers are empty.
func (q *calQueue) min(now Time) (*Event, int) {
	q.advance(now)
	var bev *Event
	bpos := srcHeap
	// Scan the occupancy bitmap circularly from cur's ring position;
	// the first occupied bucket holds the calendar tier's minimum.
	start := int(q.cur & bucketMask)
	w := start >> 6
	word := q.occ[w] &^ ((1 << (start & 63)) - 1)
	for i := 0; i <= occWords; i++ {
		if word != 0 {
			bpos = w<<6 + bits.TrailingZeros64(word)
			bev = q.buckets[bpos].head
			break
		}
		w++
		if w == occWords {
			w = 0
		}
		word = q.occ[w]
	}
	if len(q.heap) > 0 {
		if h := q.heap[0]; bev == nil || before(h, bev) {
			return h, srcHeap
		}
	}
	return bev, bpos
}

// take physically removes the event min returned. src is min's tier
// result; the event must still be at that head.
func (q *calQueue) take(ev *Event, src int) {
	ev.queued = false
	if src == srcHeap {
		q.heapPop()
		return
	}
	c := &q.buckets[src]
	c.head, ev.next = ev.next, nil
	if c.head == nil {
		c.tail = nil
		q.occ[src>>6] &^= 1 << (src & 63)
	}
}

// popDue removes and returns the next non-removed event if it is canceled
// or due at or before deadline, discarding lazily-removed garbage it
// surfaces on the way — one min scan per returned event. Returns nil when
// the queue is logically empty or its next live event is later than
// deadline.
func (q *calQueue) popDue(now, deadline Time) *Event {
	for {
		ev, src := q.min(now)
		if ev == nil || (!ev.canceled && ev.At > deadline) {
			return nil
		}
		q.take(ev, src)
		if !ev.removed {
			q.live--
			return ev
		}
	}
}

// snapshot appends every queued non-removed event to out (unsorted).
func (q *calQueue) snapshot(out []QueuedEvent) []QueuedEvent {
	add := func(ev *Event) {
		if !ev.removed {
			out = append(out, QueuedEvent{At: ev.At, Seq: ev.seq, Name: ev.Name, Canceled: ev.canceled})
		}
	}
	for b := range q.buckets {
		for ev := q.buckets[b].head; ev != nil; ev = ev.next {
			add(ev)
		}
	}
	for _, ev := range q.heap {
		add(ev)
	}
	return out
}

// 4-ary min-heap on (At, seq). Flatter than a binary heap — half the
// levels, so half the cache misses per sift — and every compare is a
// direct struct-field test on *Event, no interface dispatch.

func (q *calQueue) heapPush(ev *Event) {
	h := append(q.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.heap = h
}

func (q *calQueue) heapPop() {
	h := q.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	q.heap = h
	if n == 0 {
		return
	}
	// Sift down with an inlined 4-way min-child scan.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(h[j], h[m]) {
				m = j
			}
		}
		if !before(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
