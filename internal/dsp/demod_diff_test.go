package dsp

import (
	"math"
	"testing"

	"slingshot/internal/sim"
)

// TestDemodulateMatchesReference pins the closed-form max-log demodulator
// to the retained full-scan oracle (demod_reference_test.go): bit-exact
// LLRs for every constellation over in-range, saturated, near-zero, and
// exactly-on-level symbols (the bracket boundaries where a wrong
// nearest-candidate choice would first show), including the noiseVar clamp
// path.
func TestDemodulateMatchesReference(t *testing.T) {
	rng := sim.NewRNG(99)
	mods := []Modulation{QPSK, QAM16, QAM64, QAM256}
	for trial := 0; trial < 4000; trial++ {
		m := mods[trial%4]
		n := 1 + rng.Intn(40)
		syms := make([]complex128, n)
		for i := range syms {
			// Mix of in-constellation, far-out, and near-level points.
			sc := 1.0
			switch rng.Intn(4) {
			case 1:
				sc = 5.0
			case 2:
				sc = 0.1
			case 3:
				half := int(m) / 2
				lv := pamTables[half].scaled
				a := lv[rng.Intn(len(lv))] + rng.Norm()*1e-15
				b := lv[rng.Intn(len(lv))] + rng.Norm()*1e-15
				syms[i] = complex(a, b)
				continue
			}
			syms[i] = complex(rng.Norm()*sc, rng.Norm()*sc)
		}
		nv := math.Abs(rng.Norm()) + 1e-3
		if trial%17 == 0 {
			nv = 0 // clamp path
		}
		got := Demodulate(syms, m, nv)
		want := DemodulateReference(syms, m, nv)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d %v sym %d: got %g want %g",
					trial, m, i, got[i], want[i])
			}
		}
	}
}
