package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slingshot/internal/core"
	"slingshot/internal/fapi"
	"slingshot/internal/netmodel"
	"slingshot/internal/orion"
	"slingshot/internal/phy"
	"slingshot/internal/ru"
)

// Span layers: the step root and the public entry points the traced run
// wraps from outside the program.
const (
	spanStep = iota
	spanSwitch
	spanPHY
	spanRU
	spanOrion
	spanL2
	numSpanLayers
)

var spanNames = [numSpanLayers]string{"step", "switchsim", "phy", "ru", "orion", "l2"}

// keptSteps is how many steps of the first traced iteration keep their
// spans for the span file (a fleet step opens thousands); the per-layer
// aggregates count every span regardless.
const keptSteps = 50

type span struct {
	layer      uint8
	id, parent uint64
	start, end int64 // ns since the tracer epoch
}

type openSpan struct {
	layer   uint8
	id      uint64
	start   int64
	childNs int64
}

// spanAgg is one layer's totals: calls, wall time, and self time (wall
// time minus the time its child spans cover).
type spanAgg struct {
	count, totalNs, selfNs int64
}

// spanThread records the spans of one simulation thread: the single cell
// of a deployment workload, or one fleet cell (each cell is stepped by one
// goroutine at a time, so a thread needs no lock).
type spanThread struct {
	tid    int
	epoch  time.Time
	seq    uint64
	root   uint64 // parent id for spans opened with an empty stack
	stack  []openSpan
	spans  []span
	agg    [numSpanLayers]spanAgg
	active bool
	keep   bool // append to spans; only the first traced iteration keeps them
}

func (t *spanThread) now() int64 { return int64(time.Since(t.epoch)) }

func (t *spanThread) enter(layer uint8) {
	if !t.active {
		return
	}
	t.seq++
	t.stack = append(t.stack, openSpan{layer: layer, id: uint64(t.tid+1)<<40 | t.seq, start: t.now()})
}

func (t *spanThread) exit() {
	if !t.active {
		return
	}
	end := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - top.start
	parent := t.root
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNs += dur
		parent = t.stack[n-1].id
	}
	a := &t.agg[top.layer]
	a.count++
	a.totalNs += dur
	a.selfNs += dur - top.childNs
	if t.keep {
		t.spans = append(t.spans, span{layer: top.layer, id: top.id, parent: parent, start: top.start, end: end})
	}
}

// tracer owns every thread of one benchmark run; thread 0 records the
// step root spans. Each iteration builds a new program and so adds new
// threads; the aggregates span every iteration, the kept spans only the
// first.
type tracer struct {
	epoch   time.Time
	threads []*spanThread
	keep    bool
	steps   int
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now(), keep: true}
	tr.thread()
	return tr
}

func (tr *tracer) thread() *spanThread {
	t := &spanThread{tid: len(tr.threads), epoch: tr.epoch, keep: tr.keep}
	tr.threads = append(tr.threads, t)
	return t
}

// setActive switches recording on or off on every thread; turning it off
// ends span keeping. Wrappers stay installed, so calls outside the
// measured steps pay one branch each.
func (tr *tracer) setActive(on bool) {
	if !on {
		tr.keep = false
	}
	for _, t := range tr.threads {
		t.active = on
		t.keep = t.keep && on
	}
}

// stepSpan runs one step under a root span and makes it the parent of
// every span the cell threads open during it.
func (tr *tracer) stepSpan(step func() (bool, error)) (bool, error) {
	if tr.steps++; tr.steps > keptSteps && tr.keep {
		tr.keep = false
		for _, t := range tr.threads {
			t.keep = false
		}
	}
	root := tr.threads[0]
	root.enter(spanStep)
	if root.active {
		id := root.stack[len(root.stack)-1].id
		for _, t := range tr.threads[1:] {
			t.root = id
		}
	}
	done, err := step()
	root.exit()
	return done, err
}

// totals sums every thread's per-layer aggregates.
func (tr *tracer) totals() [numSpanLayers]spanAgg {
	var out [numSpanLayers]spanAgg
	for _, t := range tr.threads {
		for l, a := range t.agg {
			out[l].count += a.count
			out[l].totalNs += a.totalNs
			out[l].selfNs += a.selfNs
		}
	}
	return out
}

// selfNsPerCall is a layer's mean self time per wrapped call.
func (a spanAgg) selfNsPerCall() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.selfNs) / float64(a.count)
}

// write stores the kept spans as Chrome trace_event JSON (one complete
// event per span, the parent id in args).
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	for _, t := range tr.threads {
		for _, s := range t.spans {
			if !first {
				fmt.Fprint(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
				spanNames[s.layer], t.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedReceiver times one frame receiver as a span of its layer.
type timedReceiver struct {
	t     *spanThread
	layer uint8
	inner netmodel.Receiver
}

func (r *timedReceiver) HandleFrame(f *netmodel.Frame) {
	r.t.enter(r.layer)
	r.inner.HandleFrame(f)
	r.t.exit()
}

func timedFAPI(t *spanThread, layer uint8, inner func(fapi.Message)) func(fapi.Message) {
	if inner == nil {
		return nil
	}
	return func(m fapi.Message) {
		t.enter(layer)
		inner(m)
		t.exit()
	}
}

// instrument wraps a deployment's public entry points: every endpoint's
// uplink cable delivers into the switch, every switch egress port into a
// PHY, RU or Orion, and the FAPI hooks into the L2 and both Orion sides.
// Call before Start and before chaos.Attach, so the checker's taps stay
// outside the timed calls.
func instrument(d *core.Deployment, t *spanThread) {
	for addr, l := range d.Links {
		l.To = &timedReceiver{t: t, layer: spanSwitch, inner: l.To}
		port := d.Switch.Port(addr)
		if port == nil {
			continue
		}
		var layer uint8
		switch port.To.(type) {
		case *phy.PHY:
			layer = spanPHY
		case *ru.RU:
			layer = spanRU
		case *orion.Orion:
			layer = spanOrion
		default:
			continue
		}
		port.To = &timedReceiver{t: t, layer: layer, inner: port.To}
	}
	d.L2Orion.ToL2 = timedFAPI(t, spanL2, d.L2Orion.ToL2)
	d.L2.SendFAPI = timedFAPI(t, spanOrion, d.L2.SendFAPI)
	for _, server := range sortedServers(d) {
		p, o := d.PHYs[server], d.Orions[server]
		p.SendFAPI = timedFAPI(t, spanOrion, p.SendFAPI)
		o.ToPHY = timedFAPI(t, spanPHY, o.ToPHY)
	}
}
