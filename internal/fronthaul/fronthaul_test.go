package fronthaul

import (
	"math"
	"math/cmplx"
	"reflect"
	"testing"
	"testing/quick"

	"slingshot/internal/sim"
)

func TestSlotFromCounterRoundTrip(t *testing.T) {
	f := func(counter uint64) bool {
		s := SlotFromCounter(counter)
		return s.Valid() && s.Index() == counter%SlotWrap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotIDSequence(t *testing.T) {
	// Consecutive counters walk slot, then subframe, then frame.
	s0 := SlotFromCounter(0)
	s1 := SlotFromCounter(1)
	s2 := SlotFromCounter(2)
	if s0 != (SlotID{0, 0, 0}) || s1 != (SlotID{0, 0, 1}) || s2 != (SlotID{0, 1, 0}) {
		t.Fatalf("sequence: %v %v %v", s0, s1, s2)
	}
	if got := SlotFromCounter(SlotsPerFrame); got != (SlotID{1, 0, 0}) {
		t.Fatalf("frame rollover: %v", got)
	}
	if got := SlotFromCounter(SlotWrap); got != (SlotID{0, 0, 0}) {
		t.Fatalf("full wrap: %v", got)
	}
}

func TestSlotIDString(t *testing.T) {
	if got := (SlotID{3, 7, 1}).String(); got != "f3.sf7.s1" {
		t.Fatalf("String = %q", got)
	}
}

func TestDirectionString(t *testing.T) {
	if Uplink.String() != "UL" || Downlink.String() != "DL" {
		t.Fatal("direction strings wrong")
	}
}

func randomIQ(rng *sim.RNG, n int) []complex128 {
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = complex(rng.NormMeanStd(0, 1), rng.NormMeanStd(0, 1))
	}
	return iq
}

func TestBFPRoundTripAccuracy(t *testing.T) {
	rng := sim.NewRNG(1)
	iq := randomIQ(rng, 12*20)
	for _, width := range []int{9, 12, 14} {
		enc, err := CompressBFP(iq, width)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecompressBFP(enc, width)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(iq) {
			t.Fatalf("width %d: length %d != %d", width, len(dec), len(iq))
		}
		var errPow, sigPow float64
		for i := range iq {
			d := dec[i] - iq[i]
			errPow += real(d)*real(d) + imag(d)*imag(d)
			sigPow += real(iq[i])*real(iq[i]) + imag(iq[i])*imag(iq[i])
		}
		snr := 10 * math.Log10(sigPow/errPow)
		// Each mantissa bit is worth ~6 dB; 9 bits should exceed 35 dB.
		minSNR := 6*float64(width) - 20
		if snr < minSNR {
			t.Errorf("width %d: quantization SNR %.1f dB < %.1f dB", width, snr, minSNR)
		}
		if width > 9 {
			continue
		}
	}
}

func TestBFPMoreMantissaBitsBetter(t *testing.T) {
	rng := sim.NewRNG(2)
	iq := randomIQ(rng, 12*50)
	snrAt := func(width int) float64 {
		enc, _ := CompressBFP(iq, width)
		dec, _ := DecompressBFP(enc, width)
		var errPow, sigPow float64
		for i := range iq {
			d := dec[i] - iq[i]
			errPow += real(d)*real(d) + imag(d)*imag(d)
			sigPow += real(iq[i]) * real(iq[i])
		}
		return sigPow / errPow
	}
	if snrAt(14) <= snrAt(9) {
		t.Fatal("14-bit BFP not better than 9-bit")
	}
}

func TestBFPErrors(t *testing.T) {
	if _, err := CompressBFP(make([]complex128, 5), 9); err == nil {
		t.Fatal("ragged IQ accepted")
	}
	if _, err := CompressBFP(make([]complex128, 12), 1); err == nil {
		t.Fatal("1-bit mantissa accepted")
	}
	if _, err := DecompressBFP([]byte{1, 2, 3}, 9); err == nil {
		t.Fatal("ragged BFP payload accepted")
	}
}

func TestBFPBlockBytes(t *testing.T) {
	if got := BFPBlockBytes(9); got != 1+27 {
		t.Fatalf("BFPBlockBytes(9) = %d", got)
	}
	if got := BFPBlockBytes(8); got != 1+24 {
		t.Fatalf("BFPBlockBytes(8) = %d", got)
	}
}

func TestBFPSaturation(t *testing.T) {
	iq := make([]complex128, 12)
	iq[0] = complex(100, -100) // way outside [-8, 8]
	enc, err := CompressBFP(iq, 9)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressBFP(enc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if real(dec[0]) > 8.01 || imag(dec[0]) < -8.01 {
		t.Fatalf("saturated value decoded as %v, want clamp near +-8", dec[0])
	}
	if cmplx.Abs(dec[0]) < 1 {
		t.Fatalf("saturated value collapsed: %v", dec[0])
	}
}

func TestPacketSerializeDecodeRoundTrip(t *testing.T) {
	rng := sim.NewRNG(3)
	iq := randomIQ(rng, 12*4)
	p, err := NewUplinkIQ(7, 42, SlotID{5, 3, 1}, 10, 4, iq, 9)
	if err != nil {
		t.Fatal(err)
	}
	wire := p.Serialize()
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.EAxC != 7 || got.Seq != 42 || got.Dir != Uplink {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Slot != (SlotID{5, 3, 1}) || got.StartPRB != 10 || got.NumPRB != 4 {
		t.Fatalf("slot/PRB mismatch: %+v", got)
	}
	dec, err := got.IQ()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(iq) {
		t.Fatalf("IQ length %d", len(dec))
	}
}

func TestPacketDecodeProperty(t *testing.T) {
	f := func(eaxc uint16, seq uint8, frame uint8, sub, slot uint8, start, num uint16) bool {
		s := SlotID{Frame: frame, Subframe: sub % 10, Slot: slot % 2}
		p := NewControl(eaxc, seq, Downlink, s, 3)
		got, err := Decode(p.Serialize())
		if err != nil {
			return false
		}
		return got.EAxC == eaxc && got.Seq == seq && got.Slot == s &&
			got.Dir == Downlink && got.Type == MsgRTControl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoOverwritesEveryField decodes packets of opposite
// direction, type and sidecar into one reused Packet: each result must
// equal a fresh Decode, so nothing from the previous frame survives.
func TestDecodeIntoOverwritesEveryField(t *testing.T) {
	dl := NewControl(9, 200, Downlink, SlotID{7, 2, 1}, 4)
	dl.Payload = []byte{1, 2, 3}
	dl.Aux = []byte{4, 5}
	ul, err := NewUplinkIQ(3, 1, SlotID{1, 0, 0}, 2, 1, randomIQ(sim.NewRNG(5), 12), 8)
	if err != nil {
		t.Fatal(err)
	}
	var reused Packet
	for _, src := range []*Packet{dl, ul, dl} {
		wire := src.Serialize()
		want, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&reused, wire); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&reused, want) {
			t.Fatalf("DecodeInto into a reused packet = %+v, want %+v", reused, *want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err != ErrShortPacket {
		t.Fatalf("short: %v", err)
	}
	p := NewControl(1, 1, Uplink, SlotID{}, 0)
	wire := p.Serialize()
	wire[0] = 0x30 // version 3
	if _, err := Decode(wire); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	wire = p.Serialize()
	wire[8] = 0xF0 // subframe 15
	if _, err := Decode(wire); err != ErrBadSlot {
		t.Fatalf("slot: %v", err)
	}
	wire = p.Serialize()
	wire[2] = 200 // claims 200-byte payload not present
	if _, err := Decode(wire); err != ErrShortPacket {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestPeekers(t *testing.T) {
	p := NewControl(9, 0, Downlink, SlotID{1, 2, 1}, 0)
	wire := p.Serialize()
	s, dir, ok := PeekSlot(wire)
	if !ok || s != (SlotID{1, 2, 1}) || dir != Downlink {
		t.Fatalf("PeekSlot: %v %v %v", s, dir, ok)
	}
	id, ok := PeekEAxC(wire)
	if !ok || id != 9 {
		t.Fatalf("PeekEAxC: %d %v", id, ok)
	}
	mt, ok := PeekType(wire)
	if !ok || mt != MsgRTControl {
		t.Fatalf("PeekType: %v %v", mt, ok)
	}
	if _, _, ok := PeekSlot(nil); ok {
		t.Fatal("PeekSlot on nil ok")
	}
	if _, ok := PeekEAxC([]byte{1}); ok {
		t.Fatal("PeekEAxC on short ok")
	}
	if _, ok := PeekType(nil); ok {
		t.Fatal("PeekType on nil ok")
	}
}

func TestIQOnControlPacketFails(t *testing.T) {
	p := NewControl(1, 0, Uplink, SlotID{}, 0)
	if _, err := p.IQ(); err == nil {
		t.Fatal("IQ() on C-plane packet succeeded")
	}
}

func TestMessageTypeString(t *testing.T) {
	if MsgIQData.String() != "U-plane" || MsgRTControl.String() != "C-plane" {
		t.Fatal("message type strings wrong")
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	secs := []Section{
		{UEID: 1, Dir: Downlink, StartPRB: 0, NumPRB: 50, ModBits: 6,
			HARQID: 2, Rv: 1, NewData: true, TBBytes: 4000, GrantSlot: 1234},
		{UEID: 2, Dir: Uplink, StartPRB: 50, NumPRB: 20, ModBits: 2,
			TBBytes: 100, GrantSlot: 1238},
	}
	got, err := DecodeSections(EncodeSections(secs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d sections", len(got))
	}
	for i := range secs {
		if got[i] != secs[i] {
			t.Fatalf("section %d: %+v vs %+v", i, got[i], secs[i])
		}
	}
	// Appending keeps dst's prefix and reuses its capacity.
	buf := make([]Section, 1, 8)
	out, err := AppendDecodeSections(buf, EncodeSections(secs))
	if err != nil || len(out) != 3 || &out[0] != &buf[0] || out[1] != secs[0] || out[2] != secs[1] {
		t.Fatalf("AppendDecodeSections: %v %+v", err, out)
	}
}

func TestSectionsEmptyAndErrors(t *testing.T) {
	got, err := DecodeSections(EncodeSections(nil))
	if err != nil || got != nil {
		t.Fatalf("empty sections: %v %v", got, err)
	}
	if _, err := DecodeSections([]byte{0}); err == nil {
		t.Fatal("short list accepted")
	}
	if _, err := DecodeSections([]byte{0, 5, 1, 2}); err == nil {
		t.Fatal("truncated sections accepted")
	}
}

func TestPacketAuxRoundTrip(t *testing.T) {
	rng := sim.NewRNG(9)
	iq := randomIQ(rng, 12)
	p, err := NewUplinkIQ(1, 0, SlotID{}, 0, 1, iq, 9)
	if err != nil {
		t.Fatal(err)
	}
	p.Aux = []byte("transport block sidecar")
	got, err := Decode(p.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Aux) != "transport block sidecar" {
		t.Fatalf("Aux = %q", got.Aux)
	}
	if _, err := got.IQ(); err != nil {
		t.Fatalf("IQ after aux: %v", err)
	}
}
