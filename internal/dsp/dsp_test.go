package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"slingshot/internal/sim"
)

func randomBits(rng *sim.RNG, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Uint64() & 1)
	}
	return bits
}

func TestModulationStrings(t *testing.T) {
	cases := map[Modulation]string{QPSK: "QPSK", QAM16: "16QAM", QAM64: "64QAM", QAM256: "256QAM"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
		if !m.Valid() {
			t.Errorf("%v not Valid", m)
		}
	}
	if Modulation(3).Valid() {
		t.Error("Modulation(3) reported valid")
	}
}

func TestUnitAveragePower(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, m := range []Modulation{QPSK, QAM16, QAM64, QAM256} {
		bits := randomBits(rng, 6000*m.BitsPerSymbol()/2*2)
		syms := Modulate(bits[:len(bits)/m.BitsPerSymbol()*m.BitsPerSymbol()], m)
		var p float64
		for _, s := range syms {
			p += real(s)*real(s) + imag(s)*imag(s)
		}
		p /= float64(len(syms))
		if math.Abs(p-1) > 0.05 {
			t.Errorf("%v average power = %f, want 1", m, p)
		}
	}
}

func TestModulateDemodulateRoundTripNoiseless(t *testing.T) {
	rng := sim.NewRNG(2)
	for _, m := range []Modulation{QPSK, QAM16, QAM64, QAM256} {
		n := 240 * m.BitsPerSymbol()
		bits := randomBits(rng, n)
		syms := Modulate(bits, m)
		got := HardDemodulate(syms, m)
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("%v: bit %d mismatch", m, i)
			}
		}
	}
}

func TestDemodulateLLRSignProperty(t *testing.T) {
	// Property: noiseless LLR sign must encode the transmitted bit
	// (positive for 0, negative for 1) for random payloads and all
	// constellations.
	rng := sim.NewRNG(3)
	f := func(seed uint32) bool {
		for _, m := range []Modulation{QPSK, QAM16, QAM64, QAM256} {
			bits := randomBits(rng, 24*m.BitsPerSymbol())
			llr := Demodulate(Modulate(bits, m), m, 0.01)
			for i, b := range bits {
				if (llr[i] < 0) != (b == 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestModulatePanicsOnRaggedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ragged bit count")
		}
	}()
	Modulate(make([]byte, 5), QAM16)
}

func TestGrayNeighborsDifferByOneBit(t *testing.T) {
	// Adjacent PAM levels must differ in exactly one bit (Gray property) —
	// this is what makes near-threshold errors single-bit.
	for _, half := range []int{1, 2, 3, 4} {
		levels := pamLevels(half)
		// Build level->pattern inverse.
		inv := map[float64]int{}
		for pat, lv := range levels {
			inv[lv] = pat
		}
		n := 1 << half
		for l := -n + 1; l < n-1; l += 2 {
			a, b := inv[float64(l)], inv[float64(l+2)]
			x := a ^ b
			if x == 0 || x&(x-1) != 0 {
				t.Fatalf("half=%d: levels %d,%d patterns %b,%b differ in >1 bit",
					half, l, l+2, a, b)
			}
		}
	}
}

func TestChannelTransmitSNR(t *testing.T) {
	rng := sim.NewRNG(4)
	ch := NewChannel(10, 0, 0, rng)
	bits := randomBits(rng, 4000)
	tx := Modulate(bits, QPSK)
	rx := ch.Transmit(tx)
	// Measure empirical noise power after removing the (unit) gain.
	var noise float64
	for i := range rx {
		d := rx[i] - tx[i]
		noise += real(d)*real(d) + imag(d)*imag(d)
	}
	noise /= float64(len(rx))
	snr := -10 * math.Log10(noise)
	if math.Abs(snr-10) > 0.5 {
		t.Fatalf("empirical SNR = %f dB, want ~10", snr)
	}
}

// TestChannelTransmitIntoInPlace checks that the in-place form produces
// exactly the allocating form's samples (same RNG draws) without
// allocating.
func TestChannelTransmitIntoInPlace(t *testing.T) {
	tx := Modulate(randomBits(sim.NewRNG(9), 600), QAM16)
	want := NewChannel(12, 1, 0.9, sim.NewRNG(10)).Transmit(tx)
	buf := append([]complex128(nil), tx...)
	got := NewChannel(12, 1, 0.9, sim.NewRNG(10)).TransmitInto(buf, buf)
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: in place %v, allocating %v", i, got[i], want[i])
		}
	}
	ch := NewChannel(12, 1, 0.9, sim.NewRNG(11))
	if allocs := testing.AllocsPerRun(20, func() { ch.TransmitInto(buf, tx) }); allocs != 0 {
		t.Fatalf("TransmitInto allocates %v/op", allocs)
	}
}

func TestChannelFadingVaries(t *testing.T) {
	rng := sim.NewRNG(5)
	ch := NewChannel(15, 3, 0.9, rng)
	seen := map[float64]bool{}
	minSNR, maxSNR := math.Inf(1), math.Inf(-1)
	for i := 0; i < 500; i++ {
		s := ch.Advance()
		seen[s] = true
		minSNR = math.Min(minSNR, s)
		maxSNR = math.Max(maxSNR, s)
	}
	if len(seen) < 100 {
		t.Fatal("fading state not evolving")
	}
	if maxSNR-minSNR < 4 {
		t.Fatalf("fading range only %f dB", maxSNR-minSNR)
	}
}

func TestChannelNoFadingIsConstant(t *testing.T) {
	ch := NewChannel(20, 0, 0, sim.NewRNG(6))
	for i := 0; i < 10; i++ {
		if ch.Advance() != 20 {
			t.Fatal("SNR moved without fading")
		}
	}
	if ch.Gain() != complex(1, 0) {
		t.Fatalf("gain = %v, want 1", ch.Gain())
	}
}

func TestEstimateChannelRecoverGain(t *testing.T) {
	rng := sim.NewRNG(7)
	ch := NewChannel(25, 2, 0.9, rng)
	for i := 0; i < 5; i++ {
		ch.Advance()
	}
	pilots := Pilots(64, 99)
	rx := ch.Transmit(pilots)
	h, nv := EstimateChannel(rx, pilots)
	hTrue := ch.Gain()
	if d := h - hTrue; real(d)*real(d)+imag(d)*imag(d) > 0.05 {
		t.Fatalf("estimate %v far from true %v", h, hTrue)
	}
	if nv <= 0 {
		t.Fatalf("noiseVar = %f", nv)
	}
}

func TestEqualizeInvertsGain(t *testing.T) {
	rng := sim.NewRNG(8)
	ch := NewChannel(60, 4, 0.5, rng) // high SNR, strong fading
	ch.Advance()
	bits := randomBits(rng, 512)
	tx := Modulate(bits, QAM16)
	rx := ch.Transmit(tx)
	Equalize(rx, ch.Gain())
	got := HardDemodulate(rx, QAM16)
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d mismatch after equalization", i)
		}
	}
}

func TestEstimateChannelDegenerateInputs(t *testing.T) {
	h, nv := EstimateChannel(nil, nil)
	if h != 1 || nv != 1 {
		t.Fatal("nil pilots should return defaults")
	}
	h, nv = EstimateChannel(make([]complex128, 3), make([]complex128, 3))
	if h != 1 || nv != 1 {
		t.Fatal("zero pilots should return defaults")
	}
}

func TestPilotsDeterministic(t *testing.T) {
	a, b := Pilots(32, 5), Pilots(32, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pilot sequences diverge for same seed")
		}
	}
	c := Pilots(32, 6)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff < 8 {
		t.Fatal("pilot sequences for different seeds too similar")
	}
}

func TestSNRFromNoiseVar(t *testing.T) {
	if got := SNRFromNoiseVar(0.1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("SNRFromNoiseVar(0.1) = %f", got)
	}
	if got := SNRFromNoiseVar(0); got != 60 {
		t.Fatalf("SNRFromNoiseVar(0) = %f", got)
	}
}

func TestAllocationAccounting(t *testing.T) {
	a := Allocation{UEID: 1, StartPRB: 0, NumPRB: 2, Mod: QAM16}
	if got := a.REs(); got != 2*12*14 {
		t.Fatalf("REs = %d", got)
	}
	if got := a.PilotREs(); got != a.REs()/PilotSpacing {
		t.Fatalf("PilotREs = %d", got)
	}
	if got := a.DataBits(); got != a.DataREs()*4 {
		t.Fatalf("DataBits = %d", got)
	}
}

func TestGridOverlapRejected(t *testing.T) {
	g := NewGrid()
	if err := g.Place(Allocation{UEID: 1, StartPRB: 0, NumPRB: 10, Mod: QPSK}); err != nil {
		t.Fatal(err)
	}
	if err := g.Place(Allocation{UEID: 2, StartPRB: 5, NumPRB: 10, Mod: QPSK}); err == nil {
		t.Fatal("overlap accepted")
	}
	if err := g.Place(Allocation{UEID: 2, StartPRB: 10, NumPRB: 10, Mod: QPSK}); err != nil {
		t.Fatal(err)
	}
	if got := g.FreePRBs(); got != MaxPRB-20 {
		t.Fatalf("FreePRBs = %d", got)
	}
	if len(g.Allocations()) != 2 {
		t.Fatal("allocation list wrong")
	}
}

func TestGridBounds(t *testing.T) {
	g := NewGrid()
	if err := g.Place(Allocation{StartPRB: MaxPRB - 1, NumPRB: 2, Mod: QPSK}); err == nil {
		t.Fatal("out-of-bounds allocation accepted")
	}
	if err := g.Place(Allocation{StartPRB: 0, NumPRB: 0, Mod: QPSK}); err == nil {
		t.Fatal("empty allocation accepted")
	}
	if err := g.Place(Allocation{StartPRB: 0, NumPRB: 1, Mod: Modulation(5)}); err == nil {
		t.Fatal("bad modulation accepted")
	}
}

func TestPRBsForBits(t *testing.T) {
	perPRB := Allocation{NumPRB: 1, Mod: QPSK}.DataBits()
	if got := PRBsForBits(perPRB, QPSK); got != 1 {
		t.Fatalf("PRBsForBits(one PRB) = %d", got)
	}
	if got := PRBsForBits(perPRB+1, QPSK); got != 2 {
		t.Fatalf("PRBsForBits(one PRB + 1) = %d", got)
	}
	if got := PRBsForBits(0, QPSK); got != 1 {
		t.Fatalf("PRBsForBits(0) = %d", got)
	}
}

// TestEndToEndBERImprovesWithSNR chains modulation, channel, estimation,
// equalization and demodulation and checks BER decreases with SNR.
func TestEndToEndBERImprovesWithSNR(t *testing.T) {
	ber := func(snr float64) float64 {
		rng := sim.NewRNG(77)
		ch := NewChannel(snr, 0, 0, rng)
		bits := randomBits(rng, 24000)
		tx := Modulate(bits, QAM16)
		rx := ch.Transmit(tx)
		pilots := Pilots(64, 1)
		rxp := ch.Transmit(pilots)
		h, nv := EstimateChannel(rxp, pilots)
		Equalize(rx, h)
		llr := Demodulate(rx, QAM16, nv)
		errs := 0
		for i, b := range bits {
			if (llr[i] < 0) != (b == 1) {
				errs++
			}
		}
		return float64(errs) / float64(len(bits))
	}
	low, high := ber(5), ber(20)
	if high >= low {
		t.Fatalf("BER at 20dB (%f) not below BER at 5dB (%f)", high, low)
	}
	if low < 0.01 {
		t.Fatalf("BER at 5dB 16QAM suspiciously low: %f", low)
	}
	if high > 0.01 {
		t.Fatalf("BER at 20dB 16QAM suspiciously high: %f", high)
	}
}
