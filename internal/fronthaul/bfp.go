package fronthaul

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Block floating point (BFP) IQ compression, as used by O-RAN fronthaul:
// each PRB's 12 complex samples (24 real values) share one 4-bit exponent;
// each value is stored as a signed mantissa of MantissaBits bits.
//
// Compression is lossy: quantization noise appears exactly like a slightly
// worse channel, which is the behaviour the paper relies on when fronthaul
// packets are disturbed.
//
// The codec is structured as per-block SoA passes (DESIGN.md §13): stage the
// 24 real values, find the peak and exponent in the float bit domain, then
// quantize/pack (or unpack/dequantize) the whole block with branch-free
// inner loops. Output is byte-exact with the retained reference codec
// (bfp_reference_test.go) for all finite inputs — the exponent comes straight
// from the IEEE exponent field instead of a doubling loop, quantization
// folds the exact power-of-two scale into one multiply, and dequantization
// reads the once-rounded q/maxMant quotient from a per-width table.

// DefaultMantissaBits is the common 9-bit O-RAN BFP configuration.
const DefaultMantissaBits = 9

// ValuesPerBlock is the number of real values sharing an exponent
// (12 subcarriers x I/Q).
const ValuesPerBlock = 24

// BFPBlockBytes returns the encoded size of one block at the given
// mantissa width: 1 exponent byte + ceil(24*width/8) mantissa bytes.
func BFPBlockBytes(mantissaBits int) int {
	return 1 + (ValuesPerBlock*mantissaBits+7)/8
}

// bfpScale returns 2^(e-12), the amplitude one mantissa unit short of
// saturating exponent e. Exact: it is built directly in the exponent field.
func bfpScale(e int) float64 {
	return math.Float64frombits(uint64(e-12+1023) << 52)
}

// bfpExponent picks the smallest e in [0,15] with 2^(e-15) >= peak/8 —
// the same exponent the reference's doubling loop finds, read straight off
// the IEEE representation: for x >= 0, 2^k >= x iff k+1023 >= ceil(bits/2^52)
// (subnormals and zero fall out with ceil == 0 or 1, infinities clamp high).
func bfpExponent(peak float64) int {
	rb := math.Float64bits(peak / 8)
	e := int((rb+(1<<52-1))>>52) - 1008
	if e < 0 {
		e = 0
	}
	if e > 15 {
		e = 15
	}
	return e
}

// dequantTables lazily caches the per-width dequantization table, indexed
// by the raw mantissa field: tab[u] = float64(sext(u) clamped)/maxMant, so
// decoding is a single lookup — sign extension, the clamp of the
// never-emitted two's-complement minimum, and the quotient (rounded once;
// the power-of-two scale multiply afterwards is exact, so lookup is
// bit-identical to dividing per value) are all baked in.
var dequantTables [17]struct {
	once sync.Once
	tab  []float64
}

func dequantTable(mantissaBits int) []float64 {
	d := &dequantTables[mantissaBits]
	d.once.Do(func() {
		n := int(1) << mantissaBits
		maxMant := n/2 - 1
		tab := make([]float64, n)
		for u := 0; u < n; u++ {
			q := u
			if u >= n/2 {
				q = u - n
			}
			if q < -maxMant {
				q = -maxMant
			}
			tab[u] = float64(q) / float64(maxMant)
		}
		d.tab = tab
	})
	return d.tab
}

// CompressBFP encodes complex samples (len must be a multiple of 12) into
// BFP blocks. Values are expected in roughly [-8, 8]; larger magnitudes
// saturate.
func CompressBFP(iq []complex128, mantissaBits int) ([]byte, error) {
	return AppendCompressBFP(nil, iq, mantissaBits)
}

// AppendCompressBFP is CompressBFP appending to dst, so per-packet hot
// paths can reuse one output buffer (pass dst[:0]) instead of allocating.
func AppendCompressBFP(dst []byte, iq []complex128, mantissaBits int) ([]byte, error) {
	if len(iq)%12 != 0 {
		return nil, fmt.Errorf("fronthaul: %d IQ samples not a multiple of 12", len(iq))
	}
	if mantissaBits < 2 || mantissaBits > 16 {
		return nil, fmt.Errorf("fronthaul: mantissa width %d out of range", mantissaBits)
	}
	nBlocks := len(iq) / 12
	out := dst
	if need := len(out) + nBlocks*BFPBlockBytes(mantissaBits); cap(out) < need {
		grown := make([]byte, len(out), need)
		copy(grown, out)
		out = grown
	}
	maxMant := float64(int(1)<<(mantissaBits-1)) - 1
	qMax := int64(maxMant)
	mask := uint64(1)<<mantissaBits - 1

	if mantissaBits == 9 {
		return compressBFP9(out, iq), nil
	}
	var mant [ValuesPerBlock]uint64
	for b := 0; b < nBlocks; b++ {
		blk := iq[b*12 : b*12+12 : b*12+12]
		e := bfpBlockExponent(blk)
		qscale := maxMant * bfpQScale(e)
		out = append(out, byte(e))
		for i, s := range blk {
			mant[2*i] = uint64(bfpRound(real(s)*qscale, qMax)) & mask
			mant[2*i+1] = uint64(bfpRound(imag(s)*qscale, qMax)) & mask
		}
		var acc uint64
		accBits := 0
		for _, u := range &mant {
			acc = acc<<mantissaBits | u
			accBits += mantissaBits
			for accBits >= 8 {
				out = append(out, byte(acc>>(accBits-8)))
				accBits -= 8
			}
		}
		if accBits > 0 {
			out = append(out, byte(acc<<(8-accBits)))
		}
	}
	return out, nil
}

// bfpPeakBits returns the block peak |value| as float bits: clearing the
// sign bit is Abs, and sign-cleared doubles order as their uint64 bits, so
// the running maxima are integer compare/selects with no float branches
// (two accumulators halve the select chain).
func bfpPeakBits(blk []complex128) uint64 {
	var pr, pi uint64
	for _, s := range blk {
		ar := math.Float64bits(real(s)) &^ (1 << 63)
		ai := math.Float64bits(imag(s)) &^ (1 << 63)
		if ar > pr {
			pr = ar
		}
		if ai > pi {
			pi = ai
		}
	}
	if pi > pr {
		pr = pi
	}
	return pr
}

// bfpBlockExponent runs the peak pass and picks the block exponent.
func bfpBlockExponent(blk []complex128) int {
	return bfpExponent(math.Float64frombits(bfpPeakBits(blk)))
}

// bfpQScale returns 2^(12-e) — the exact power-of-two factor mapping values
// onto the mantissa grid (multiplying by it rounds identically to dividing
// by the block scale).
func bfpQScale(e int) float64 {
	return math.Float64frombits(uint64(1023+12-e) << 52)
}

// bfpRound is int64(math.Round(x)) clamped to [-qMax, qMax], via the
// magic-number trick: 1.5*2^52 puts any |x| <= 2^51 in the [2^52, 2^53)
// binade whose spacing is exactly 1, so x + magic - magic rounds x to the
// integer grid (half to even) for either sign with no transfers out of the
// float domain; the ties-only fixup turns that into half away from zero,
// matching math.Round (x is t+d with integral t, so q's sign stands in for
// x's, and the rare branches never fire on continuous data). Bit-exact with
// the reference's conversion for every input: |x| >= 2^51 (coarsened but
// beyond the clamp), NaN, and ±Inf all land on the same clamped value.
func bfpRound(x float64, qMax int64) int64 {
	const magic = 3 * (1 << 51) // 1.5*2^52
	t := x + magic - magic
	q := int64(t)
	d := x - t
	if d == 0.5 { // tie rounded toward -inf; round positives away
		if q >= 0 {
			q++
		}
	} else if d == -0.5 { // tie rounded toward +inf; round negatives away
		if q <= 0 {
			q--
		}
	}
	if q > qMax {
		q = qMax
	}
	if q < -qMax {
		q = -qMax
	}
	return q
}

// compressBFP9 is the 9-bit fast path: quantization fuses straight into the
// byte-aligned group layout (8 mantissas fill exactly 9 bytes), writing the
// whole 28-byte block with indexed stores — no mantissa staging array and
// no shift-register state. out already has capacity for every block.
func compressBFP9(out []byte, iq []complex128) []byte {
	const mask = 511
	for b := 0; b < len(iq)/12; b++ {
		blk := iq[b*12 : b*12+12 : b*12+12]
		e := bfpBlockExponent(blk)
		qscale := 255 * bfpQScale(e)
		n := len(out)
		out = out[:n+28]
		out[n] = byte(e)
		for g := 0; g < 3; g++ {
			s4 := blk[g*4 : g*4+4 : g*4+4]
			u0 := uint64(bfpRound(real(s4[0])*qscale, 255)) & mask
			u1 := uint64(bfpRound(imag(s4[0])*qscale, 255)) & mask
			u2 := uint64(bfpRound(real(s4[1])*qscale, 255)) & mask
			u3 := uint64(bfpRound(imag(s4[1])*qscale, 255)) & mask
			u4 := uint64(bfpRound(real(s4[2])*qscale, 255)) & mask
			u5 := uint64(bfpRound(imag(s4[2])*qscale, 255)) & mask
			u6 := uint64(bfpRound(real(s4[3])*qscale, 255)) & mask
			u7 := uint64(bfpRound(imag(s4[3])*qscale, 255)) & mask
			hi := u0<<55 | u1<<46 | u2<<37 | u3<<28 |
				u4<<19 | u5<<10 | u6<<1 | u7>>8
			binary.BigEndian.PutUint64(out[n+1+g*9:], hi)
			out[n+1+g*9+8] = byte(u7)
		}
	}
	return out
}

// DecompressBFP decodes BFP blocks back into complex samples.
func DecompressBFP(data []byte, mantissaBits int) ([]complex128, error) {
	return AppendDecompressBFP(nil, data, mantissaBits)
}

// AppendDecompressBFP is DecompressBFP appending to dst, so per-packet hot
// paths can reuse one IQ buffer (pass dst[:0]) instead of allocating.
func AppendDecompressBFP(dst []complex128, data []byte, mantissaBits int) ([]complex128, error) {
	if mantissaBits < 2 || mantissaBits > 16 {
		return nil, fmt.Errorf("fronthaul: mantissa width %d out of range", mantissaBits)
	}
	blockBytes := BFPBlockBytes(mantissaBits)
	if len(data)%blockBytes != 0 {
		return nil, fmt.Errorf("fronthaul: %d bytes not a multiple of block size %d", len(data), blockBytes)
	}
	nBlocks := len(data) / blockBytes
	out := dst
	if need := len(out) + nBlocks*12; cap(out) < need {
		grown := make([]complex128, len(out), need)
		copy(grown, out)
		out = grown
	}
	tab := dequantTable(mantissaBits)
	mask := uint64(1)<<mantissaBits - 1

	if mantissaBits == 9 {
		// Fixed-width fast path: unpack each 9-byte group as one big-endian
		// word plus a tail byte; every mantissa field indexes the raw table
		// directly (the array-pointer conversion checks the length once;
		// shift/mask-bounded indices need no per-value bounds check).
		t9 := (*[512]float64)(tab)
		for b := 0; b < nBlocks; b++ {
			blk := data[b*blockBytes : (b+1)*blockBytes : (b+1)*blockBytes]
			scale := bfpScale(int(blk[0] & 0x0F))
			o := out[len(out) : len(out)+12 : len(out)+12]
			for g := 0; g < 3; g++ {
				a := binary.BigEndian.Uint64(blk[1+g*9:])
				c := uint64(blk[1+g*9+8])
				v0 := t9[a>>55] * scale
				v1 := t9[a>>46&511] * scale
				v2 := t9[a>>37&511] * scale
				v3 := t9[a>>28&511] * scale
				v4 := t9[a>>19&511] * scale
				v5 := t9[a>>10&511] * scale
				v6 := t9[a>>1&511] * scale
				v7 := t9[(a&1)<<8|c] * scale
				og := o[g*4 : g*4+4 : g*4+4]
				og[0] = complex(v0, v1)
				og[1] = complex(v2, v3)
				og[2] = complex(v4, v5)
				og[3] = complex(v6, v7)
			}
			out = out[:len(out)+12]
		}
		return out, nil
	}

	var vals [ValuesPerBlock]float64
	for b := 0; b < nBlocks; b++ {
		blk := data[b*blockBytes : (b+1)*blockBytes : (b+1)*blockBytes]
		scale := bfpScale(int(blk[0] & 0x0F))
		var acc uint64
		accBits := 0
		pos := 1
		for v := 0; v < ValuesPerBlock; v++ {
			for accBits < mantissaBits {
				acc = acc<<8 | uint64(blk[pos])
				pos++
				accBits += 8
			}
			vals[v] = tab[acc>>(accBits-mantissaBits)&mask] * scale
			accBits -= mantissaBits
		}
		o := out[len(out) : len(out)+12 : len(out)+12]
		for i := range o {
			o[i] = complex(vals[2*i], vals[2*i+1])
		}
		out = out[:len(out)+12]
	}
	return out, nil
}
