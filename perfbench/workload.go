package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"

	"slingshot/internal/chaos"
	"slingshot/internal/core"
	"slingshot/internal/dsp"
	"slingshot/internal/l2"
	"slingshot/internal/phy"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
	"slingshot/internal/switchsim"
)

// A workload is one set of inputs the benchmark drives through the
// program. setup builds everything from the seed, starts the program and
// warms it up until traffic flows; step advances it by one TTI; finish
// stops it and reads back its virtual-time outputs. README.md records why
// each workload exists and which layers it stresses.
type workload interface {
	setup(seed uint64, tr *tracer) error
	step() (done bool, err error)
	finish() (outcome, error)
	cells() int
}

var workloads = map[string]func() workload{
	"cell-failover":   func() workload { return &cellFailover{} },
	"metro-sparse":    func() workload { return &metroSparse{size: metroCells} },
	"migration-storm": func() workload { return &migrationStorm{} },
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// outcome is one iteration's virtual-time result. Everything in it is
// deterministic for a seed: digest (hashed into the fingerprint) renders
// all of it.
type outcome struct {
	violations  int
	violation   string // the first one, for the failure log
	goodputMbps float64
	availPct    float64
	fidelity    []fidelity
	counts      layerCounts
	digest      string
}

// fidelity is a paper-facing metric defined only on the workloads that
// exercise it (a failover, a planned migration).
type fidelity struct {
	name, unit string
	value      float64
}

// fingerprint hashes the outcome's rendered virtual-time outputs.
func (o outcome) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|v=%d|g=%.9g|a=%.9g|%+v", o.digest, o.violations, o.goodputMbps, o.availPct, o.counts)
	for _, f := range o.fidelity {
		fmt.Fprintf(h, "|%s=%.9g", f.name, f.value)
	}
	return h.Sum64()
}

// layerCounts are per-layer work counts read from the program's public
// statistics after a run, over the iteration's whole horizon.
type layerCounts struct {
	CellTTIs   uint64
	Events     uint64 // sim.Engine.Processed
	Slots      uint64 // phy.Stats.SlotsProcessed
	NullSlots  uint64
	WorkUnits  uint64 // FEC decoder edge-iterations
	DecodeOK   uint64
	DecodeFail uint64
	Frames     uint64 // frames delivered on every link, both directions
	HARQTx     uint64 // L2 UL grants + DL transport blocks, retransmissions included
	HARQRetx   uint64
}

func (c *layerCounts) add(d *core.Deployment) {
	c.Events += d.Engine.Processed
	for _, s := range sortedServers(d) {
		st := d.PHYs[s].Stats
		c.Slots += st.SlotsProcessed
		c.NullSlots += st.NullSlots
		c.WorkUnits += st.WorkUnits
		c.DecodeOK += st.DecodeOK
		c.DecodeFail += st.DecodeFail
	}
	for addr, l := range d.Links {
		c.Frames += l.Delivered
		if p := d.Switch.Port(addr); p != nil {
			c.Frames += p.Delivered
		}
	}
	st := d.L2.Stats
	c.HARQTx += st.ULGrants + st.DLTBs
	c.HARQRetx += st.ULRetx + st.DLRetx
}

func sortedServers(d *core.Deployment) []uint8 {
	var out []uint8
	for s := range d.PHYs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedUEs(d *core.Deployment) []uint16 {
	var out []uint16
	for id := range d.UEs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cellRun is the single-cell harness shared by cell-failover and
// migration-storm: a Slingshot deployment with the chaos invariant
// checker attached and sequence-stamped traffic, stepped one TTI at a
// time.
type cellRun struct {
	d       *core.Deployment
	chk     *chaos.Checker
	horizon sim.Time
	now     sim.Time
	// Traffic: one stamped packet per UE and direction per period, from
	// trafficAt until drain before the horizon.
	trafficAt        sim.Time
	ulPeriod         sim.Time
	dlPeriod         sim.Time
	pktBytes         int
	ulBytes          uint64
	dlBytes          uint64
	firstUL, firstDL map[uint16]bool
}

func (c *cellRun) build(cfg core.Config, tr *tracer) {
	c.d = core.NewSlingshot(cfg)
	if tr != nil {
		instrument(c.d, tr.thread())
	}
	c.chk = chaos.Attach(c.d)
	c.firstUL, c.firstDL = map[uint16]bool{}, map[uint16]bool{}
	c.d.OnUplink(func(ue uint16, pkt []byte) {
		c.chk.ObserveUplink(ue, pkt)
		c.ulBytes += uint64(len(pkt))
		c.firstUL[ue] = true
	})
	for _, id := range sortedUEs(c.d) {
		c.d.UEs[id].OnDownlink = func(pkt []byte) {
			c.chk.ObserveDownlink(id, pkt)
			c.dlBytes += uint64(len(pkt))
			c.firstDL[id] = true
		}
	}
	stopAt := c.horizon - 30*sim.Millisecond
	for _, id := range sortedUEs(c.d) {
		c.stream(id, false, c.ulPeriod, stopAt)
		c.stream(id, true, c.dlPeriod, stopAt)
	}
}

// stream schedules one UE's stamped packets in one direction.
func (c *cellRun) stream(id uint16, down bool, period, stopAt sim.Time) {
	if period <= 0 {
		return
	}
	var seq uint64
	var tick func()
	tick = func() {
		seq++
		pkt := chaos.TrafficPacket(down, id, seq, c.pktBytes)
		if down {
			c.d.SendDownlink(id, pkt)
		} else if u := c.d.UEs[id]; u.Connected() {
			u.SendUplink(pkt)
		}
		if c.d.Engine.Now()+period < stopAt {
			c.d.Engine.After(period, "bench.traffic", tick)
		}
	}
	c.d.Engine.At(c.trafficAt, "bench.traffic", tick)
}

// warmUp starts the deployment and runs whole TTIs until every UE has
// delivered in each direction it sends in, the "traffic flows" point
// that ends set-up.
func (c *cellRun) warmUp() error {
	c.d.Start()
	limit := c.trafficAt + 500*sim.Millisecond
	for {
		flowing := true
		for _, id := range sortedUEs(c.d) {
			if (c.ulPeriod > 0 && !c.firstUL[id]) || (c.dlPeriod > 0 && !c.firstDL[id]) {
				flowing = false
			}
		}
		if flowing {
			return nil
		}
		if c.now >= limit {
			return fmt.Errorf("traffic not flowing %v after start", c.now)
		}
		c.step()
	}
}

func (c *cellRun) step() (bool, error) {
	c.now += phy.TTI
	c.d.Run(c.now)
	return c.now >= c.horizon, nil
}

// finish stops the deployment and fills the fields every single-cell
// workload shares.
func (c *cellRun) finish() outcome {
	c.d.Stop()
	c.chk.Finish()
	var o outcome
	o.violations = c.chk.Total
	if v := c.chk.Violations(); len(v) > 0 {
		o.violation = v[0].String()
	}
	o.goodputMbps = float64(c.ulBytes+c.dlBytes) * 8 / (c.horizon - c.trafficAt).Seconds() / 1e6
	slots := uint64(c.horizon / phy.TTI)
	o.availPct = 100 * (1 - float64(c.chk.DroppedTTIs(c.d.Cfg.Cell))/float64(slots))
	o.counts.add(c.d)
	o.counts.CellTTIs = slots
	var b strings.Builder
	for _, id := range sortedUEs(c.d) {
		ul, dl := c.chk.Delivered(id)
		fmt.Fprintf(&b, "ue%d=%d/%d ", id, ul, dl)
	}
	fmt.Fprintf(&b, "bytes=%d/%d dropped=%d det=%v mig=%d l2=%+v",
		c.ulBytes, c.dlBytes, c.chk.DroppedTTIs(c.d.Cfg.Cell), c.d.Switch.DetectionLog,
		len(c.d.Switch.MigrationLog), c.d.L2.Stats)
	o.digest = b.String()
	return o
}

// cellFailover is the paper's 3-UE testbed cell (24/20/28 dB) under
// bidirectional UDP load; the active PHY is killed at mid-run, at a
// seed-drawn offset inside the slot.
type cellFailover struct {
	cellRun
	killAt  sim.Time
	harqAtK int
}

func (w *cellFailover) cells() int { return 1 }

func (w *cellFailover) setup(seed uint64, tr *tracer) error {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	w.horizon = 1200 * sim.Millisecond
	w.trafficAt = 40 * sim.Millisecond
	w.ulPeriod = 2 * sim.Millisecond // 4.8 Mb/s per UE
	w.dlPeriod = 1 * sim.Millisecond // 9.6 Mb/s per UE
	w.pktBytes = 1200
	w.build(cfg, tr)
	offset := sim.Time(sim.NewRNG(seed).Fork(0xBE).Float64() * float64(phy.TTI))
	w.killAt = w.horizon/2 + offset
	w.d.Engine.At(w.killAt, "bench.kill", func() {
		w.harqAtK = w.d.ActivePHY().ActiveHARQ(w.d.Cfg.Cell)
		w.d.KillActivePHY()
	})
	return w.warmUp()
}

func (w *cellFailover) finish() (outcome, error) {
	o := w.cellRun.finish()
	det := w.d.Switch.DetectionLog
	if len(det) == 0 {
		return o, errors.New("cell-failover: the kill was never detected")
	}
	o.fidelity = []fidelity{
		{"dropped_tti_max", "TTI", float64(w.chk.DroppedTTIs(w.d.Cfg.Cell))},
		{"detect_us_p50", "us", float64(det[0]-w.killAt) / float64(sim.Microsecond)},
		{"harq_interrupted_at_failover", "count", float64(w.harqAtK)},
	}
	return o, nil
}

// migrationStorm is Table 2's worst column: one UE at 10.4 dB pinned to
// QAM16 near its decode threshold, 8 Mb/s uplink, and a planned
// migration every 20 ms. Each migration lands on a PHY with no soft state
// (§8.4): PlannedMigration alone leaves the destination the HARQ buffers
// of its previous active period, so the workload discards them through
// PHY.DiscardSoftState, the hook the PHY exposes for this stress test.
type migrationStorm struct {
	cellRun
	migrations  int
	interrupted int
	refused     int
}

func (w *migrationStorm) cells() int { return 1 }

func (w *migrationStorm) setup(seed uint64, tr *tracer) error {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.UEs = []core.UESpec{{ID: 1, Name: "stress-ue", MeanSNRdB: 10.4, FadeStd: 1.3, FadeCorr: 0.9}}
	cfg.L2Tweak = func(l *l2.Config) { l.FixedULMod = dsp.QAM16 }
	w.horizon = 2 * sim.Second
	w.trafficAt = 40 * sim.Millisecond
	w.ulPeriod = 1200 * sim.Microsecond // 8 Mb/s of 1200-byte datagrams
	w.pktBytes = 1200
	w.build(cfg, tr)
	innerMig := w.d.Switch.OnMigration
	w.d.Switch.OnMigration = func(rec switchsim.MigrationRecord) {
		if innerMig != nil {
			innerMig(rec)
		}
		w.d.PHYs[rec.ToPHY].DiscardSoftState()
	}
	w.d.Engine.Every(200*sim.Millisecond, 20*sim.Millisecond, "bench.migrate", func() {
		if w.d.Engine.Now() >= w.horizon-50*sim.Millisecond {
			return
		}
		// Count the HARQ sequences the migration strands, as table2Run does.
		w.interrupted += w.d.ActivePHY().ActiveHARQ(w.d.Cfg.Cell)
		w.migrations++
		if _, err := w.d.PlannedMigration(); err != nil {
			w.refused++
		}
	})
	return w.warmUp()
}

func (w *migrationStorm) finish() (outcome, error) {
	o := w.cellRun.finish()
	if w.migrations == 0 {
		return o, errors.New("migration-storm: no migration ran")
	}
	if w.refused > 0 {
		return o, fmt.Errorf("migration-storm: %d of %d migrations refused", w.refused, w.migrations)
	}
	o.fidelity = []fidelity{
		{"harq_interrupted_per_mig", "count", float64(w.interrupted) / float64(w.migrations)},
		{"migrations", "count", float64(w.migrations)},
	}
	return o, nil
}

// metroSparse is shard.ChaosConfig with one UE per cell: kills and
// pooled spares across the fleet, stepped one lockstep barrier (one TTI)
// at a time. The controller's migration storm is turned off: a kill that
// lands while a planned migration of the same cell is in flight loses two
// TTIs that the checker attributes to no failover, on about one seed in
// twenty; migration-storm covers planned migrations. rogueAt forces an
// invariant violation (shard.Config.RogueAt) for the failure-counting
// test.
type metroSparse struct {
	size    int
	rogueAt sim.Time
	f       *shard.Fleet
	cfg     shard.Config
	deps    []*core.Deployment
	crashes [][]sim.Time
	running bool
}

// metroCells is the benchmark's fleet size: large enough that per-TTI
// fixed costs and the lockstep barrier dominate.
const metroCells = 96

// metroHorizon doubles ChaosConfig's 300 ms so an iteration has over 1000
// measured steps, enough for a per-iteration 99th percentile.
const metroHorizon = 600 * sim.Millisecond

func (w *metroSparse) cells() int { return w.cfg.Cells }

func (w *metroSparse) setup(seed uint64, tr *tracer) error {
	cfg := shard.ChaosConfig(w.size, w.size)
	cfg.Horizon = metroHorizon
	cfg.Migrations = 0
	cfg.Seed = seed
	cfg.Shards = procs
	cfg.RogueAt = w.rogueAt
	f, err := shard.New(cfg)
	if err != nil {
		return err
	}
	w.f = f
	w.cfg = f.Config()
	if w.deps, err = fleetDeployments(f); err != nil {
		return err
	}
	w.crashes = make([][]sim.Time, len(w.deps))
	for i, d := range w.deps {
		if tr != nil {
			instrument(d, tr.thread())
		}
		for _, s := range sortedServers(d) {
			p := d.PHYs[s]
			inner := p.OnCrash
			p.OnCrash = func(reason string) {
				if w.running {
					w.crashes[i] = append(w.crashes[i], d.Engine.Now())
				}
				if inner != nil {
					inner(reason)
				}
			}
		}
	}
	f.Start()
	w.running = true
	for f.Now() < w.cfg.Settle {
		if _, err := f.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (w *metroSparse) step() (bool, error) { return w.f.Step() }

func (w *metroSparse) finish() (outcome, error) {
	w.running = false
	rep := w.f.Finish()
	var o outcome
	o.violations = rep.Violations
	if rep.Violations > 0 {
		o.violation = rep.Err().Error()
	}
	var delivered, dropped, worst uint64
	for _, c := range rep.Cells {
		delivered += c.UL + c.DL
		dropped += c.Dropped
		if c.Killed && c.Dropped > worst {
			worst = c.Dropped
		}
	}
	o.goodputMbps = float64(delivered*uint64(w.cfg.PacketBytes)) * 8 / (w.cfg.Horizon - w.cfg.Settle).Seconds() / 1e6
	slots := uint64(w.cfg.Horizon/w.cfg.Step) * uint64(w.cfg.Cells)
	o.availPct = 100 * (1 - float64(dropped)/float64(slots))
	var detect []float64
	for i, d := range w.deps {
		o.counts.add(d)
		// Detection latency: the first in-switch detection after each
		// PHY crash the fault plan caused.
		for _, at := range w.crashes[i] {
			for _, t := range d.Switch.DetectionLog {
				if t >= at {
					detect = append(detect, float64(t-at)/float64(sim.Microsecond))
					break
				}
			}
		}
	}
	o.counts.CellTTIs = slots
	if len(detect) == 0 {
		return o, errors.New("metro-sparse: no kill was detected")
	}
	o.fidelity = []fidelity{
		{"dropped_tti_max", "TTI", float64(worst)},
		{"detect_us_p50", "us", median(detect)},
		{"failovers", "count", float64(len(detect))},
	}
	o.digest = fmt.Sprintf("fleet=%016x grants=%d denials=%d migrate=%d", rep.Fingerprint, rep.Grants, rep.Denials, rep.MigrateCmds)
	return o, nil
}

// fleetDeployments returns the fleet's per-cell deployments. shard.Fleet
// keeps them unexported, so the benchmark reads them by reflection —
// read-only access from outside the program, used for the same public
// statistics and hooks the single-cell workloads use directly. An error
// here means the fleet's layout changed and this accessor must follow.
func fleetDeployments(f *shard.Fleet) ([]*core.Deployment, error) {
	cells := reflect.ValueOf(f).Elem().FieldByName("cells")
	if cells.Kind() != reflect.Slice {
		return nil, errors.New("metro-sparse: shard.Fleet has no cells slice")
	}
	want := reflect.TypeOf((*core.Deployment)(nil))
	out := make([]*core.Deployment, cells.Len())
	for i := range out {
		cs := cells.Index(i)
		if cs.Kind() != reflect.Pointer || cs.Elem().Kind() != reflect.Struct {
			return nil, errors.New("metro-sparse: fleet cell is not a struct pointer")
		}
		d := cs.Elem().FieldByName("d")
		if !d.IsValid() || d.Type() != want {
			return nil, errors.New("metro-sparse: fleet cell has no *core.Deployment field d")
		}
		out[i] = (*core.Deployment)(d.UnsafePointer())
	}
	return out, nil
}
