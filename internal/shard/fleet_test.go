package shard

import (
	"runtime"
	"strings"
	"testing"

	"slingshot/internal/mem"
	"slingshot/internal/par"
	"slingshot/internal/sim"
)

// runWith executes one fleet with explicit shard-group and worker counts.
func runWith(t *testing.T, cfg Config, shards, workers int) *Report {
	t.Helper()
	cfg.Shards = shards
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet run (shards=%d workers=%d): %v", shards, workers, err)
	}
	return rep
}

// TestFleetDeterminism: the full chaos scenario renders byte-identically
// at every shard-group × worker-pool combination.
func TestFleetDeterminism(t *testing.T) {
	cfg := ChaosConfig(6, 36)
	cfg.Seed = 7
	base := runWith(t, cfg, 1, 1).String()
	for _, c := range [][2]int{{2, 3}, {3, 1}, {6, 3}} {
		if got := runWith(t, cfg, c[0], c[1]).String(); got != base {
			t.Fatalf("report diverged at shards=%d workers=%d", c[0], c[1])
		}
	}
}

// TestFleetChaosFailoverBound: every killed cell stays within the paper's
// §8.2 ≤3-dropped-TTI budget, the spare pool accounting matches the kill
// count, and granted cells end up serving from the reprovisioned side.
func TestFleetChaosFailoverBound(t *testing.T) {
	cfg := ChaosConfig(8, 64)
	cfg.Seed = 3
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if rep.Err() != nil {
		t.Fatalf("invariants: %v\n%s", rep.Err(), rep.String())
	}
	killed, respared := 0, 0
	for _, cs := range rep.Cells {
		if cs.Killed {
			killed++
			if cs.Dropped > 3 {
				t.Errorf("cell %d dropped %d TTIs on failover, §8.2 allows ≤3", cs.Cell, cs.Dropped)
			}
			if cs.SpareOK {
				respared++
			}
		} else if cs.Dropped != 0 {
			t.Errorf("unkilled cell %d dropped %d TTIs", cs.Cell, cs.Dropped)
		}
		if cs.UL == 0 || cs.DL == 0 {
			t.Errorf("cell %d delivered no traffic (ul=%d dl=%d)", cs.Cell, cs.UL, cs.DL)
		}
	}
	if killed != cfg.Kills {
		t.Errorf("%d cells killed, plan said %d", killed, cfg.Kills)
	}
	if rep.Grants+rep.Denials != killed {
		t.Errorf("controller handled %d+%d spare requests for %d kills",
			rep.Grants, rep.Denials, killed)
	}
	if rep.Grants != respared || rep.Grants != cfg.Spares {
		t.Errorf("grants=%d respared=%d pool=%d: exhausted pool should grant exactly its size",
			rep.Grants, respared, cfg.Spares)
	}
	if rep.Exchanged == 0 {
		t.Error("no inter-shard messages exchanged")
	}
}

// TestFleetBackhaulCancelMidRun cancels one cell's periodic cross-shard
// ticker mid-run (satellite: Every-cancel × lockstep barrier). The fleet
// must run to the horizon — a canceled tick never stalls the TTI barrier
// — and the outcome must stay shard-count invariant.
func TestFleetBackhaulCancelMidRun(t *testing.T) {
	build := func(shards, workers int) string {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		cfg := DefaultConfig(4, 16)
		cfg.Shards = shards
		f, err := New(cfg)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		// Kill cell 2's backhaul clock mid-run, on its own engine like
		// any in-shard event would.
		victim := f.cells[2]
		victim.eng.At(70*sim.Millisecond, "test.cancel", func() {
			for _, c := range victim.cancel {
				c()
			}
		})
		rep, err := f.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep.String()
	}
	base := build(1, 1)
	if got := build(4, 4); got != base {
		t.Fatal("cancel mid-run broke shard-count invariance")
	}
	// The canceled cell's neighbor receives fewer load reports than in an
	// uncanceled run — the cancel really took effect.
	full, err := Run(DefaultConfig(4, 16))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base == full.String() {
		t.Fatal("canceling cell 2's backhaul changed nothing")
	}
	if !strings.Contains(base, "cell    3") {
		t.Fatalf("report lost its per-cell lines:\n%s", base)
	}
}

// TestFleetLookaheadGuard: a shard emitting a message due at or before
// the current barrier violates conservative synchronization and must
// fail the run loudly rather than deliver nondeterministically.
func TestFleetLookaheadGuard(t *testing.T) {
	f, err := New(DefaultConfig(2, 4))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	m := Message{At: 0, Src: 0, Dst: 1, Seq: 1, Kind: KindBackhaul}
	f.cells[0].out = append(f.cells[0].out, Encode(&m))
	if err := f.exchange(phy0TTI(), 2*phy0TTI()); err == nil {
		t.Fatal("exchange accepted a message due before the barrier")
	}
}

func phy0TTI() sim.Time { return 500 * sim.Microsecond }

// TestFleetUndecodableFrame: corrupt outbox bytes fail the exchange.
func TestFleetUndecodableFrame(t *testing.T) {
	f, err := New(DefaultConfig(2, 4))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	f.cells[0].out = append(f.cells[0].out, []byte{0xDE, 0xAD})
	if err := f.exchange(phy0TTI(), 2*phy0TTI()); err == nil {
		t.Fatal("exchange accepted an undecodable frame")
	}
}

// TestFleetConfigValidation pins the constructor's rejection surface.
func TestFleetConfigValidation(t *testing.T) {
	cases := map[string]Config{
		"zero cells":    {Cells: 0, UEs: 10, Horizon: sim.Second},
		"empty cells":   {Cells: 10, UEs: 5, Horizon: sim.Second},
		"over budget":   {Cells: 1, UEs: 500, Horizon: sim.Second},
		"short horizon": {Cells: 2, UEs: 4, Horizon: sim.Microsecond, Step: sim.Millisecond},
		"id space":      {Cells: 0x10000, UEs: 0x10000, Horizon: sim.Second},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted: %+v", name, cfg)
		}
	}
	if _, err := New(DefaultConfig(2, 8)); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestFleetCellReports: the per-cell chaos.Report view used by fleet
// soaks carries one report per cell with distinct profiles, populated
// flows and stable fingerprints.
func TestFleetCellReports(t *testing.T) {
	cfg := DefaultConfig(3, 9)
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	crs := f.CellReports(rep)
	if len(crs) != cfg.Cells {
		t.Fatalf("%d cell reports for %d cells", len(crs), cfg.Cells)
	}
	seen := map[string]bool{}
	for i, cr := range crs {
		if seen[cr.Profile] {
			t.Errorf("duplicate profile %q", cr.Profile)
		}
		seen[cr.Profile] = true
		if len(cr.Flows) != rep.Cells[i].UEs {
			t.Errorf("cell %d: %d flows for %d UEs", i, len(cr.Flows), rep.Cells[i].UEs)
		}
		if cr.Fingerprint == 0 {
			t.Errorf("cell %d: zero fingerprint", i)
		}
		if cr.Err() != nil {
			t.Errorf("cell %d: %v", i, cr.Err())
		}
	}
}

// TestFleetTraceAggregation: with tracing on, the report carries the
// merged counter exposition including per-shard event volumes, and
// tracing does not perturb the untraced fingerprint inputs.
func TestFleetTraceAggregation(t *testing.T) {
	cfg := DefaultConfig(2, 6)
	cfg.Trace = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := rep.String()
	for _, want := range []string{"counters:", "fleet.shard0000.events", "fleet.shard0001.events"} {
		if !strings.Contains(s, want) {
			t.Errorf("traced report missing %q", want)
		}
	}
}

// TestFleetMallocsPerCellTTI bounds the fleet's steady-state garbage: a
// ChaosConfig(16, 16) fleet, warmed for 200 steps, then measured over 200
// more with kills, spare grants and traffic under way. The per-TTI radio,
// fronthaul, barrier and event-calendar paths allocate nothing; the
// allowance covers the application packets (stamp, RLC enqueue,
// reassembly).
func TestFleetMallocsPerCellTTI(t *testing.T) {
	const cells, steps, bound = 16, 200, 1.0
	if mem.DetectorArmed() {
		t.Skip("pool leak detector armed (-race or SLINGSHOT_POOL=debug); its bookkeeping allocates")
	}
	prev := mem.SetEnabled(true)
	defer mem.SetEnabled(prev)
	f, err := New(ChaosConfig(cells, cells))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		for i := 0; i < steps; i++ {
			if _, err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	perCellTTI := float64(after.Mallocs-before.Mallocs) / (cells * steps)
	if perCellTTI > bound {
		t.Fatalf("fleet allocates %.2f times per cell-TTI, want <= %.1f", perCellTTI, bound)
	}
	if f.ViolationsLive() != 0 {
		t.Fatalf("%d invariant violations", f.ViolationsLive())
	}
}
