package statevec

import "math"

// This file holds the fast Walsh–Hadamard transform H^⊗n. The x-mixer
// layers never run it (they sweep qubits directly); it is the
// independent reference the mixer tests check e^{−iβΣX} against
// (H^⊗n · diag(e^{−iβ(n−2|x|)}) · H^⊗n, ref. [43] of the paper).
//
// The textbook FWHT streams the whole 2^n vector once per butterfly
// stage. Two restructurings cut the traversal count:
//
//   - Low stages (stride < blockLen) are applied block-by-block: an
//     aligned block of blockLen amplitudes contains both endpoints of
//     every low-stage butterfly, so one cache residency retires all
//     log2(blockLen) low stages. The per-pair arithmetic is identical
//     to the per-stage order, so results are bit-equal.
//   - High stages (stride ≥ blockLen) necessarily stream the vector;
//     they are paired radix-4 so each traversal retires two stages
//     (normalizing by 1/2 instead of 1/√2 twice — equal up to
//     rounding).
//
// A full transform therefore costs 1 + ⌈(n − log2 blockLen)/2⌉
// traversals instead of n.
const fwhtBlockComplex = 1 << 14 // complex128: 16 B/amplitude → 256 KiB

// fwhtElem covers the element types the transform runs on: the
// butterfly is real-linear, so a complex state transforms exactly as
// its real and imaginary planes transformed independently.
type fwhtElem interface {
	~float32 | ~float64 | ~complex128
}

const invSqrt2 = 1 / math.Sqrt2

// FWHT applies the normalized fast Walsh–Hadamard transform H^⊗n in
// place. Applying it twice recovers the input (H is an involution).
// The paper's §III-B notes the mixer at β = π/2 is exactly this
// transform.
func FWHT(v Vec) { fwhtSerial(v, fwhtBlockComplex) }

// fwhtSerial is the cache-blocked transform over any element type;
// blockLen must be a power of two (tests shrink it to exercise the
// high-stage code).
func fwhtSerial[T fwhtElem](v []T, blockLen int) {
	n := numQubits(len(v))
	if n == 0 {
		return
	}
	if blockLen > len(v) {
		blockLen = len(v)
	}
	low := numQubits(blockLen)
	for base := 0; base < len(v); base += blockLen {
		fwhtLowStages(v[base:base+blockLen], low)
	}
	fwhtHighStages(v, low, n)
}

// fwhtLowStages applies butterfly stages 0..stages−1 within one
// aligned block. Every pair at stride < len(blk) has both endpoints in
// the block, so the stages compose without leaving cache.
func fwhtLowStages[T fwhtElem](blk []T, stages int) {
	for q := 0; q < stages; q++ {
		stride := 1 << uint(q)
		for base := 0; base < len(blk); base += 2 * stride {
			for off := 0; off < stride; off++ {
				l1 := base + off
				l2 := l1 + stride
				y1, y2 := blk[l1], blk[l2]
				blk[l1] = (y1 + y2) * T(invSqrt2)
				blk[l2] = (y1 - y2) * T(invSqrt2)
			}
		}
	}
}

// fwhtHighStages applies stages from..n−1 over the full vector,
// radix-4-paired so each traversal retires two stages; a trailing
// unpaired stage runs as a plain butterfly pass.
func fwhtHighStages[T fwhtElem](v []T, from, n int) {
	q := from
	for ; q+1 < n; q += 2 {
		stride := 1 << uint(q)
		for base := 0; base < len(v); base += 4 * stride {
			for off := 0; off < stride; off++ {
				fwhtRadix4(v, base+off, stride)
			}
		}
	}
	if q < n {
		stride := 1 << uint(q)
		for base := 0; base < len(v); base += 2 * stride {
			for off := 0; off < stride; off++ {
				l1 := base + off
				l2 := l1 + stride
				y1, y2 := v[l1], v[l2]
				v[l1] = (y1 + y2) * T(invSqrt2)
				v[l2] = (y1 - y2) * T(invSqrt2)
			}
		}
	}
}

// fwhtRadix4 applies stages q and q+1 (strides s and 2s) to one
// quadruple in a single read-modify-write: the composition of the two
// butterflies with the two 1/√2 factors merged into one 1/2.
func fwhtRadix4[T fwhtElem](v []T, i0, s int) {
	i1 := i0 + s
	i2 := i0 + 2*s
	i3 := i0 + 3*s
	y0, y1, y2, y3 := v[i0], v[i1], v[i2], v[i3]
	a0, a1 := y0+y1, y0-y1
	b0, b1 := y2+y3, y2-y3
	v[i0] = (a0 + b0) * T(0.5)
	v[i1] = (a1 + b1) * T(0.5)
	v[i2] = (a0 - b0) * T(0.5)
	v[i3] = (a1 - b1) * T(0.5)
}
