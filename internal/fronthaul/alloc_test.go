package fronthaul

import (
	"testing"

	"slingshot/internal/mem"
)

// TestPacketRoundTripAllocs pins the garbage-free fronthaul path: building
// a U-plane packet (pooled struct + pooled BFP payload), serializing into a
// pooled wire buffer, recycling, decoding the wire bytes back into a
// receiver-owned packet, parsing sections into a reused slice and
// decompressing IQ into a reused buffer — zero allocations per cycle.
func TestPacketRoundTripAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool leak detector armed (-race or SLINGSHOT_POOL=debug); its bookkeeping allocates")
	}
	prev := mem.SetEnabled(true)
	defer mem.SetEnabled(prev)
	iq := make([]complex128, 120)
	for i := range iq {
		iq[i] = complex(float64(i%7)/3.5-1, float64(i%5)/2.5-1)
	}
	slot := SlotFromCounter(4)
	secs := []Section{{UEID: 1, Dir: Uplink, NumPRB: 4, GrantSlot: 9}, {UEID: 2, Dir: Downlink}}
	var (
		iqBuf  []complex128
		rx     Packet
		secBuf []Section
	)
	cycle := func() {
		pkt, err := NewUplinkIQ(3, 1, slot, 0, 10, iq, 9)
		if err != nil {
			t.Fatal(err)
		}
		wire := pkt.SerializePooled()
		mem.PutBytes(pkt.Payload)
		pkt.Recycle()
		if err := DecodeInto(&rx, wire); err != nil {
			t.Fatal(err)
		}
		iqBuf, err = rx.AppendIQ(iqBuf[:0])
		if err != nil {
			t.Fatal(err)
		}
		mem.PutBytes(wire)

		ctl := NewControl(3, 2, Downlink, slot, uint8(len(secs)))
		ctl.Payload = AppendSections(mem.GetBytesCap(SectionsSize(len(secs))), secs)
		wire = ctl.SerializePooled()
		mem.PutBytes(ctl.Payload)
		ctl.Recycle()
		if err := DecodeInto(&rx, wire); err != nil {
			t.Fatal(err)
		}
		if secBuf, err = AppendDecodeSections(secBuf[:0], rx.Payload); err != nil || len(secBuf) != len(secs) {
			t.Fatalf("sections: %v, %d parsed", err, len(secBuf))
		}
		mem.PutBytes(wire)
	}
	cycle() // prime the packet and buffer pools, size iqBuf and secBuf
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("packet round trip allocates %.1f times, want 0", avg)
	}
}
