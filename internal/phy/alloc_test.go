package phy

import (
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/par"
	"slingshot/internal/sim"
)

// TestUplinkSlotSteadyStateAllocs drives a configured PHY through full
// DDDSU cycles — null configs every slot, a granted UL transmission with a
// real decoded transport block each uplink slot — and asserts the
// steady-state cycle allocates nothing. Everything the PHY leases per slot
// (FAPI messages, IQ/LLR staging, fronthaul packets, payloads and frames,
// pending-UL containers) comes from pools, and the received packet is
// decoded into PHY-owned staging.
func TestUplinkSlotSteadyStateAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool leak detector armed (-race or SLINGSHOT_POOL=debug); its bookkeeping allocates")
	}
	prevPool := mem.SetEnabled(true)
	defer mem.SetEnabled(prevPool)
	prevW := par.SetWorkers(1) // keep decode inline so the bill is stable
	defer par.SetWorkers(prevW)

	e := sim.NewEngine()
	p := New(e, DefaultConfig(1), sim.NewRNG(1))
	// The sinks own what they receive outright, like the PHY-side Orion
	// (it encodes and releases) and the switch's terminal consumers.
	p.SendFAPI = func(m fapi.Message) { fapi.ReleaseDeep(m) }
	p.SendFronthaul = netmodel.ReleaseFrame
	p.HandleFAPI(&fapi.ConfigRequest{CellID: 0, NumPRB: 273, MantissaBits: 9, Seed: 99})
	p.HandleFAPI(&fapi.StartRequest{CellID: 0})
	p.Start()

	codec := NewCodec(0, 0, 9, 99)
	tb := make([]byte, 32)
	for i := range tb {
		tb[i] = byte(3 * i)
	}

	const warmSlots = 30 // past the slot-20 GC threshold
	const cycles = 20
	totalSlots := uint64(warmSlots + (cycles+2)*5)

	// Pre-schedule every feed so the measured loop only executes events.
	for s := uint64(0); s < totalSlots; s++ {
		slot := s
		at := sim.Time(0)
		if slot > 0 {
			at = SlotStart(slot-1) + 50*sim.Microsecond
		}
		if KindOf(slot) == SlotUL {
			e.At(at, "test.ulcfg", func() {
				ul := fapi.GetULConfig(0, slot)
				ul.PDUs = append(ul.PDUs, fapi.PDU{
					UEID: 7, HARQID: 1, NewData: true,
					Alloc:   dsp.Allocation{UEID: 7, StartPRB: 0, NumPRB: 10, Mod: dsp.QPSK},
					TBBytes: uint32(len(tb)),
				})
				p.HandleFAPI(ul)
				p.HandleFAPI(fapi.GetDLConfig(0, slot))
			})
			// The UE's transmission, pre-built: IQ, channel, packet, frame.
			iq := PadSymbols(codec.EncodeBlock(tb, slot, 7, dsp.QPSK))
			rx := dsp.NewChannel(30, 0, 0, sim.NewRNG(slot)).Transmit(iq)
			pkt, err := fronthaul.NewUplinkIQ(0, 0, fronthaul.SlotFromCounter(slot), 0, 10, rx, 9)
			if err != nil {
				t.Fatal(err)
			}
			pkt.Section = 7
			pkt.Aux = tb
			frame := &netmodel.Frame{
				Src: netmodel.RUAddr(0), Dst: netmodel.PHYAddr(1),
				Type: netmodel.EtherTypeECPRI, Payload: pkt.Serialize(),
			}
			e.At(SlotStart(slot)+200*sim.Microsecond, "test.ulpkt", func() {
				p.HandleFrame(frame)
			})
		} else {
			e.At(at, "test.nullcfg", func() {
				p.HandleFAPI(fapi.GetULConfig(0, slot))
				p.HandleFAPI(fapi.GetDLConfig(0, slot))
			})
		}
	}

	mark := uint64(warmSlots)
	e.RunUntil(SlotStart(mark))
	avg := testing.AllocsPerRun(cycles, func() {
		mark += 5
		e.RunUntil(SlotStart(mark))
	})
	if avg != 0 {
		t.Fatalf("steady-state uplink cycle allocates %.1f times, want 0", avg)
	}
}
