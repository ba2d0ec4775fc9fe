package dsp

import (
	"math"
	"math/cmplx"

	"slingshot/internal/sim"
)

// Channel models a block-fading wireless channel between a UE and the RU:
// a complex gain h (constant within a slot, evolving slowly across slots by
// a Gauss-Markov process) plus AWGN set by the link's average SNR.
type Channel struct {
	// MeanSNRdB is the long-term average SNR of the link.
	MeanSNRdB float64
	// FadeStd controls slot-to-slot gain variation (dB-scale std of the
	// log-amplitude component); 0 disables fading.
	FadeStd float64
	// Corr is the Gauss-Markov correlation of the fading state across
	// consecutive slots (0..1). Higher = slower fading.
	Corr float64

	rng   *sim.RNG
	state float64 // fading log-amplitude state, dB
	phase float64
}

// NewChannel builds a channel with the given mean SNR and a dedicated RNG
// stream.
func NewChannel(meanSNRdB, fadeStd, corr float64, rng *sim.RNG) *Channel {
	return &Channel{MeanSNRdB: meanSNRdB, FadeStd: fadeStd, Corr: corr, rng: rng}
}

// Advance evolves the fading state by one slot and returns the slot's
// effective SNR in dB.
func (c *Channel) Advance() float64 {
	if c.FadeStd > 0 {
		innov := math.Sqrt(1-c.Corr*c.Corr) * c.FadeStd
		c.state = c.Corr*c.state + c.rng.NormMeanStd(0, innov)
		c.phase += c.rng.Jitter(0.2)
	}
	return c.MeanSNRdB + c.state
}

// SNRdB returns the current slot's effective SNR without advancing.
func (c *Channel) SNRdB() float64 { return c.MeanSNRdB + c.state }

// Gain returns the current complex channel gain (unit mean power scaled by
// the fading state; phase rotates slowly).
func (c *Channel) Gain() complex128 {
	amp := math.Pow(10, c.state/20)
	return cmplx.Rect(amp, c.phase)
}

// NoiseVar returns the complex noise variance for unit-power transmit
// symbols at the channel's current SNR.
func (c *Channel) NoiseVar() float64 {
	return math.Pow(10, -c.SNRdB()/10)
}

// Transmit passes unit-power symbols through the channel: applies the
// complex gain and adds complex AWGN at the current SNR. The input is not
// modified; the output is a fresh slice (see TransmitInto).
func (c *Channel) Transmit(symbols []complex128) []complex128 {
	return c.TransmitInto(make([]complex128, len(symbols)), symbols)
}

// TransmitInto is Transmit writing into dst, which must be at least
// len(src) long, and returns dst[:len(src)]. dst may be src itself: each
// sample is read before its slot is written, so the channel can run in
// place over a caller-owned buffer. The RNG draw order is Transmit's.
func (c *Channel) TransmitInto(dst, src []complex128) []complex128 {
	h := c.Gain()
	sigma := math.Sqrt(c.NoiseVar() / 2)
	dst = dst[:len(src)]
	for i, s := range src {
		n := complex(c.rng.Norm()*sigma, c.rng.Norm()*sigma)
		dst[i] = s*h + n
	}
	return dst
}

// EstimateChannel performs least-squares channel estimation from received
// pilot symbols given the known transmitted pilots. It returns the gain
// estimate and the residual noise-variance estimate.
func EstimateChannel(rxPilots, txPilots []complex128) (h complex128, noiseVar float64) {
	if len(rxPilots) == 0 || len(rxPilots) != len(txPilots) {
		return 1, 1
	}
	var num, den complex128
	for i := range rxPilots {
		num += rxPilots[i] * cmplx.Conj(txPilots[i])
		den += txPilots[i] * cmplx.Conj(txPilots[i])
	}
	if den == 0 {
		return 1, 1
	}
	h = num / den
	var resid float64
	for i := range rxPilots {
		d := rxPilots[i] - h*txPilots[i]
		resid += real(d)*real(d) + imag(d)*imag(d)
	}
	noiseVar = resid / float64(len(rxPilots))
	if noiseVar < 1e-12 {
		noiseVar = 1e-12
	}
	return h, noiseVar
}

// Equalize divides received symbols by the channel estimate (zero-forcing).
// The input is modified in place and returned.
func Equalize(symbols []complex128, h complex128) []complex128 {
	if h == 0 {
		h = 1
	}
	inv := 1 / h
	for i := range symbols {
		symbols[i] *= inv
	}
	return symbols
}

// Pilots returns n known QPSK pilot symbols derived from seed; transmitter
// and receiver derive the same sequence independently.
func Pilots(n int, seed uint64) []complex128 {
	return PilotsInto(nil, n, seed)
}

// PilotsInto is Pilots writing into dst (grown as needed), so per-block
// hot paths can reuse one pilot buffer instead of allocating per call.
func PilotsInto(dst []complex128, n int, seed uint64) []complex128 {
	rng := sim.NewRNG(seed | 1)
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	inv := 1 / math.Sqrt2
	for i := range dst {
		bits := rng.Uint64()
		re, im := inv, inv
		if bits&1 != 0 {
			re = -inv
		}
		if bits&2 != 0 {
			im = -inv
		}
		dst[i] = complex(re, im)
	}
	return dst
}

// SNRFromNoiseVar converts a unit-signal-power noise variance to dB SNR.
func SNRFromNoiseVar(noiseVar float64) float64 {
	if noiseVar <= 0 {
		return 60
	}
	return -10 * math.Log10(noiseVar)
}
