package fec

import (
	"math"
	"testing"

	"slingshot/internal/sim"
)

// These tests pin the flat and SoA kernels to the retained reference
// decoder (reference_test.go): same info bits, same OK verdict, same iteration
// count, for convergent and non-convergent inputs alike. They are the
// contract that lets the hot paths restructure freely — any reordering that
// changes a floating-point result or a tie-break shows up here.

// TestDecodeMatchesReference drives the scalar kernel and the reference
// with identical hostile LLRs (pure noise, so many trials never converge
// and exercise the full-iteration paths).
func TestDecodeMatchesReference(t *testing.T) {
	c := NewCode(256, 512, 42)
	rng := sim.NewRNG(99)
	for trial := 0; trial < 800; trial++ {
		llr := make([]float64, c.N)
		for i := range llr {
			llr[i] = rng.Norm() * 3
		}
		want := c.DecodeReference(llr, 8)
		got := c.Decode(llr, 8)
		if got.OK != want.OK || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: got (%v,%d) want (%v,%d)",
				trial, got.OK, got.Iterations, want.OK, want.Iterations)
		}
		for i := range want.Info {
			if got.Info[i] != want.Info[i] {
				t.Fatalf("trial %d: info bit %d differs", trial, i)
			}
		}
	}
}

// TestDecodeBatchMatchesReference drives DecodeBatch with ragged batches —
// SoA lane groups plus leftovers, mixed per-job iteration limits, noisy
// codewords spanning convergent and non-convergent SNRs — and checks every
// job against the reference.
func TestDecodeBatchMatchesReference(t *testing.T) {
	code := Get(64, 128, 3)
	rng := sim.NewRNG(99)
	for trial := 0; trial < 300; trial++ {
		njobs := 1 + rng.Intn(11)
		jobs := make([]DecodeJob, njobs)
		want := make([]DecodeResult, njobs)
		for j := range jobs {
			info := make([]byte, code.K)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			coded := code.Encode(info)
			snr := 0.5 + 3*rng.Float64()
			llr := make([]float64, code.N)
			for i, bit := range coded {
				s := 1.0
				if bit == 1 {
					s = -1.0
				}
				llr[i] = 2*snr*s + rng.Norm()*math.Sqrt(2*snr)
			}
			iters := 1 + rng.Intn(8)
			jobs[j] = DecodeJob{Code: code, LLR: llr, MaxIters: iters}
			want[j] = code.DecodeReference(llr, iters)
		}
		got := DecodeBatch(jobs)
		for j := range jobs {
			if got[j].OK != want[j].OK || got[j].Iterations != want[j].Iterations {
				t.Fatalf("trial %d job %d: got (ok=%v it=%d) want (ok=%v it=%d)",
					trial, j, got[j].OK, got[j].Iterations, want[j].OK, want[j].Iterations)
			}
			for i := range got[j].Info {
				if got[j].Info[i] != want[j].Info[i] {
					t.Fatalf("trial %d job %d: info bit %d differs", trial, j, i)
				}
			}
		}
	}
}

// TestDecodeI8MatchesDequantizedFloat pins the int8 LLR lane's defining
// property: decoding quantized LLRs is bit-identical to decoding their
// dequantized float values — through the scalar path, and through
// DecodeBatch with i8 and float jobs mixed in the same lane groups.
func TestDecodeI8MatchesDequantizedFloat(t *testing.T) {
	code := Get(64, 128, 3)
	rng := sim.NewRNG(101)
	for trial := 0; trial < 200; trial++ {
		njobs := 1 + rng.Intn(9)
		jobsI8 := make([]DecodeJob, njobs)
		jobsF := make([]DecodeJob, njobs)
		for j := range jobsI8 {
			llr := make([]float64, code.N)
			for i := range llr {
				llr[i] = rng.Norm() * 8
			}
			q := AppendQuantizeLLRI8(nil, llr, LLRI8Step)
			deq := make([]float64, code.N)
			for i, v := range q {
				deq[i] = float64(v) * LLRI8Step
			}
			iters := 1 + rng.Intn(8)
			if rng.Bool(0.5) {
				jobsI8[j] = DecodeJob{Code: code, LLRI8: q, MaxIters: iters}
			} else {
				// Mixed lanes: a float job whose values happen to be
				// quantized must decode identically either way.
				jobsI8[j] = DecodeJob{Code: code, LLR: deq, MaxIters: iters}
			}
			jobsF[j] = DecodeJob{Code: code, LLR: deq, MaxIters: iters}
		}
		gotI8 := DecodeBatch(jobsI8)
		gotF := DecodeBatch(jobsF)
		for j := range gotI8 {
			if gotI8[j].OK != gotF[j].OK || gotI8[j].Iterations != gotF[j].Iterations {
				t.Fatalf("trial %d job %d: i8 (ok=%v it=%d) float (ok=%v it=%d)",
					trial, j, gotI8[j].OK, gotI8[j].Iterations, gotF[j].OK, gotF[j].Iterations)
			}
			for i := range gotI8[j].Info {
				if gotI8[j].Info[i] != gotF[j].Info[i] {
					t.Fatalf("trial %d job %d: info bit %d differs", trial, j, i)
				}
			}
		}
	}

	// Scalar entry point: DecodeI8WithScratch against DecodeWithScratch.
	s := code.NewScratch()
	s2 := code.NewScratch()
	for trial := 0; trial < 50; trial++ {
		llr := make([]float64, code.N)
		for i := range llr {
			llr[i] = rng.Norm() * 8
		}
		q := AppendQuantizeLLRI8(nil, llr, LLRI8Step)
		deq := make([]float64, code.N)
		for i, v := range q {
			deq[i] = float64(v) * LLRI8Step
		}
		got := code.DecodeI8WithScratch(q, LLRI8Step, 8, s)
		want := code.DecodeWithScratch(deq, 8, s2)
		if got.OK != want.OK || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: i8 (ok=%v it=%d) float (ok=%v it=%d)",
				trial, got.OK, got.Iterations, want.OK, want.Iterations)
		}
		for i := range want.Info {
			if got.Info[i] != want.Info[i] {
				t.Fatalf("trial %d: info bit %d differs", trial, i)
			}
		}
	}
}

// TestQuantizeLLRI8 pins the lane's quantizer: round-to-nearest at the
// step, symmetric ±127 clamp, zero maps to zero.
func TestQuantizeLLRI8(t *testing.T) {
	in := []float64{0, 0.124, 0.126, -0.126, 31.74, 31.8, 1000, -1000, -31.8}
	want := []int8{0, 0, 1, -1, 127, 127, 127, -127, -127}
	got := AppendQuantizeLLRI8(nil, in, LLRI8Step)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quantize(%v) = %d, want %d", in[i], got[i], want[i])
		}
	}
	if len(got) != len(in) {
		t.Fatalf("quantized %d values from %d inputs", len(got), len(in))
	}
}
