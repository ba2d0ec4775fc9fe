package core

import (
	"testing"

	"slingshot/internal/mem"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
)

// warmCell builds the one-UE test cell, starts it and runs it for 300 ms:
// past the PHY's slot-20 retention horizon and several wraps of the
// engine's calendar ring, so every pool, scratch buffer and ring bucket
// the steady state uses already exists. step advances it one TTI.
func warmCell(t *testing.T) (d *Deployment, step func()) {
	t.Helper()
	if mem.DetectorArmed() {
		t.Skip("pool leak detector armed (-race or SLINGSHOT_POOL=debug); its bookkeeping allocates")
	}
	prev := mem.SetEnabled(true)
	t.Cleanup(func() { mem.SetEnabled(prev) })
	d = NewSlingshot(smallConfig())
	d.Start()
	t.Cleanup(d.Stop)
	now := 300 * sim.Millisecond
	d.Run(now)
	return d, func() {
		now += phy.TTI
		d.Run(now)
	}
}

// TestIdleCellAllocatesNothing pins the garbage-free steady state: with no
// traffic, a warmed cell's TTI — slot clocks on the RU and both PHYs,
// heartbeats and fronthaul through the switch, null FAPI configs through
// both Orions, UE control reception and CQI reports — allocates nothing.
func TestIdleCellAllocatesNothing(t *testing.T) {
	_, step := warmCell(t)
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("idle TTI allocates %.2f times, want 0", avg)
	}
}

// TestTrafficCellAllocsPerPacket bounds what a cell carrying traffic
// allocates: one 1200-byte packet each way per TTI. The radio and
// fronthaul path (encode, channel, BFP, FEC, HARQ, FAPI) allocates
// nothing; the allowance is what crosses the application boundary — the
// RLC transmit queue growing as packets are enqueued, and each in-order
// packet reassembled fresh for the application, which may keep it.
func TestTrafficCellAllocsPerPacket(t *testing.T) {
	const perPacket = 2
	d, tick := warmCell(t)
	pkt := make([]byte, 1200)
	var delivered int
	d.OnUplink(func(uint16, []byte) { delivered++ })
	d.UEs[1].OnDownlink = func([]byte) { delivered++ }
	step := func() {
		d.UEs[1].SendUplink(pkt)
		d.SendDownlink(1, pkt)
		tick()
	}
	for i := 0; i < 200; i++ { // let both directions reach steady flow
		step()
	}
	delivered = 0
	const runs = 200
	avg := testing.AllocsPerRun(runs, step)
	if delivered < runs { // both directions combined, over runs+1 TTIs
		t.Fatalf("only %d packets delivered over %d TTIs; the cell is not carrying traffic", delivered, runs)
	}
	if perPkt := avg / 2; perPkt > perPacket {
		t.Fatalf("traffic TTI allocates %.2f times per packet, want <= %d", perPkt, perPacket)
	}
}
