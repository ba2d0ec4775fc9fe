package sim

import (
	"fmt"
	"sort"
)

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (FIFO tie-break by sequence number), which keeps runs
// fully deterministic.
type Event struct {
	At   Time
	Do   func()
	Name string // optional label for tracing

	// Argument-carrying form: doArg(arg) fires instead of Do when Do is
	// nil. Lets callers schedule with a long-lived closure and a per-event
	// payload, so the hot path allocates neither closure nor event.
	doArg func(any)
	arg   any

	next     *Event // successor in its calendar bucket's chain (queue.go)
	seq      uint64
	canceled bool
	removed  bool // lazily deleted by Remove; discarded when it surfaces
	queued   bool // currently in the queue (either tier)
	pooled   bool // recycled onto the engine free list after firing
}

func (e *Event) fire() {
	if e.Do != nil {
		e.Do()
		return
	}
	e.doArg(e.arg)
}

// Cancel marks the event so it will not fire. Safe to call multiple times
// and after the event has fired (no-op).
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use: simulated entities are single-threaded by design, matching
// the determinism requirement.
//
// Pending events live in a two-tier calendar/4-ary-heap queue (queue.go):
// near-future events in ring buckets, far-future events in a specialized
// heap, popped in exact (At, seq) order either way.
type Engine struct {
	now     Time
	q       calQueue
	nextSeq uint64
	stopped bool

	// free holds fired pooled events for reuse. Only events scheduled via
	// the *Pooled variants land here: those return no handle, so no caller
	// can observe a recycled event through a stale pointer. Handle-returning
	// At/After events are never recycled — Cancel/Remove after fire must
	// stay a safe no-op.
	free []*Event

	// Processed counts events executed so far (observability).
	Processed uint64
}

// NewEngine creates an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it would silently reorder causality.
func (e *Engine) At(at Time, name string, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", name, at, e.now))
	}
	ev := &Event{At: at, Do: fn, Name: name, seq: e.nextSeq}
	e.nextSeq++
	e.q.push(ev, e.now)
	return ev
}

// Rearm re-queues an already-fired event at absolute time at, reusing the
// struct. Intended for self-rescheduling periodic callbacks (Every) that
// hold their own handle; the event must not currently be queued.
func (e *Engine) rearm(ev *Event, at Time) {
	e.push(ev, at, ev.Name)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, name, fn)
}

// getFree returns a recycled event or a fresh one.
func (e *Engine) getFree() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// push (re)initializes ev and queues it.
func (e *Engine) push(ev *Event, at Time, name string) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", name, at, e.now))
	}
	ev.At = at
	ev.Name = name
	ev.seq = e.nextSeq
	ev.canceled = false
	e.nextSeq++
	e.q.push(ev, e.now)
}

// AtPooled schedules fn at absolute time at, recycling the event struct
// after it fires. No handle is returned: pooled events cannot be canceled,
// which is exactly what makes recycling safe (no stale *Event can reach a
// reused event). Semantics (ordering, FIFO tie-break) match At.
func (e *Engine) AtPooled(at Time, name string, fn func()) {
	ev := e.getFree()
	ev.Do = fn
	ev.doArg = nil
	ev.arg = nil
	ev.pooled = true
	e.push(ev, at, name)
}

// AfterPooled schedules fn to run d after the current time on a recycled
// event. See AtPooled for the no-cancel contract.
func (e *Engine) AfterPooled(d Time, name string, fn func()) {
	if d < 0 {
		d = 0
	}
	e.AtPooled(e.now+d, name, fn)
}

// AtArgPooled schedules fn(arg) at absolute time at on a recycled event.
// With a long-lived fn (e.g. one per link) the schedule allocates nothing:
// no closure, no event. See AtPooled for the no-cancel contract.
func (e *Engine) AtArgPooled(at Time, name string, fn func(any), arg any) {
	ev := e.getFree()
	ev.Do = nil
	ev.doArg = fn
	ev.arg = arg
	ev.pooled = true
	e.push(ev, at, name)
}

// AfterArgPooled schedules fn(arg) to run d after the current time on a
// recycled event. See AtArgPooled.
func (e *Engine) AfterArgPooled(d Time, name string, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.AtArgPooled(e.now+d, name, fn, arg)
}

// recycle clears a fired pooled event and returns it to the free list.
// Clearing drops closure/arg references so the pool never pins payloads.
func (e *Engine) recycle(ev *Event) {
	ev.Do = nil
	ev.doArg = nil
	ev.arg = nil
	ev.Name = ""
	e.free = append(e.free, ev)
}

// Remove cancels ev and deletes it from the queue immediately: Pending
// drops at once and the event can never fire. Deletion is lazy — the
// struct stays in its tier until it surfaces at a pop and is discarded —
// but that is unobservable: Pending counts it out now, QueueSnapshot
// skips it, and the discard never advances the clock. Cancel alone leaves
// the event counted until its fire time — harmless for one-shots, but a
// canceled far-future or periodic event would otherwise linger as queue
// garbage (and keep Pending nonzero). Safe on nil and on events that
// already fired or were already removed.
func (e *Engine) Remove(ev *Event) {
	if ev == nil {
		return
	}
	ev.canceled = true
	if ev.queued && !ev.removed {
		ev.removed = true
		e.q.live--
	}
}

// Every schedules fn to run every period, with the first firing delay
// after the current time. It returns a cancel function that stops future
// firings. fn observes the engine clock.
func (e *Engine) Every(delay, period Time, name string, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	if delay < 0 {
		delay = 0
	}
	stopped := false
	var tick func()
	var pending *Event
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped { // fn may have canceled us
			// Reuse the same event for every tick: it has already fired
			// (popped from the queue), and the only outstanding handle is
			// ours, so re-queueing it cannot confuse any caller.
			e.rearm(pending, e.now+period)
		}
	}
	pending = e.At(e.now+delay, name, tick)
	return func() {
		stopped = true
		e.Remove(pending)
	}
}

// Step executes the next pending event. It returns false when the queue is
// empty or the engine is stopped.
func (e *Engine) Step() bool {
	return e.fireNext(maxTime)
}

// RunUntil executes events until the clock would pass deadline or the queue
// drains. The clock is left at deadline if it was reached with the queue
// still holding later events.
func (e *Engine) RunUntil(deadline Time) {
	for e.fireNext(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// maxTime is Step's deadline: every queued event is due.
const maxTime = Time(1<<63 - 1)

// fireNext fires the next event due at or before deadline and reports
// whether it fired one. Canceled events surfacing on the way are popped,
// and recycled if pooled, even when they are later than deadline.
func (e *Engine) fireNext(deadline Time) bool {
	for !e.stopped {
		ev := e.q.popDue(e.now, deadline)
		if ev == nil {
			return false
		}
		if ev.canceled {
			if ev.pooled {
				e.recycle(ev)
			}
			continue
		}
		e.now = ev.At
		e.Processed++
		ev.fire()
		if ev.pooled {
			e.recycle(ev)
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Stop halts the engine; Step and RunUntil return immediately afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of queued events (Canceled-but-not-Removed
// events still count until their fire time).
func (e *Engine) Pending() int { return e.q.live }

// NextSeq returns the sequence number the next scheduled event will get.
// Together with QueueSnapshot it pins the engine's scheduling state for
// deployment snapshots: two engines with equal clocks, equal next
// sequence numbers and equal queue snapshots will fire the same events in
// the same order.
func (e *Engine) NextSeq() uint64 { return e.nextSeq }

// QueuedEvent is one pending event's serializable identity: its fire
// time, FIFO tie-break sequence, label and cancel flag. The callback
// itself is a closure and deliberately not part of the identity — restore
// reconstructs closures by deterministic re-execution (internal/ckpt),
// and the (At, Seq, Name) triple is what proves the reconstruction
// reached the same schedule.
type QueuedEvent struct {
	At       Time
	Seq      uint64
	Name     string
	Canceled bool
}

// QueueSnapshot returns the pending events in canonical (At, Seq) order.
// The tiers are only partially ordered, so the snapshot sorts a copy; the
// engine's queue is not disturbed. Lazily-removed events are excluded —
// they are no longer part of the schedule's identity, exactly as they
// were absent from the seed's eagerly-deleted heap.
func (e *Engine) QueueSnapshot() []QueuedEvent {
	out := e.q.snapshot(make([]QueuedEvent, 0, e.q.live))
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
