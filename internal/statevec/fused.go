package statevec

import "math"

// ApplyUniformRXFused applies the transverse-field mixer e^{−iβΣX_i}
// with qubits processed two at a time: each pass applies the 4×4
// tensor product RX(β)⊗RX(β) to a quadruple of amplitudes, halving the
// number of passes over the state vector compared to Algorithm 2's
// per-qubit sweeps. This is the paper's §VI "gate fusion with F = 2"
// applied to the one place it still helps after diagonal
// precomputation — the mixer — and is the ablation target measuring
// how memory-bound the mixer sweep is. Odd n finishes with one
// single-qubit sweep.
//
// The fused 4×4 block for U = [[c, −is], [−is, c]] ⊗ same is
//
//	[ cc   −ics  −ics  −ss ]
//	[ −ics  cc   −ss   −ics]
//	[ −ics  −ss   cc   −ics]
//	[ −ss  −ics  −ics   cc ]
//
// with cc = cos²β, ss = sin²β, cs = cosβ·sinβ.
func ApplyUniformRXFused(v Vec, beta float64) {
	n := v.NumQubits()
	s, c := math.Sincos(beta)
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	q := 0
	for ; q+1 < n; q += 2 {
		applyFusedRXPair(v, q, cc, ss, ics)
	}
	if q < n {
		ApplySU2(v, q, complex(c, 0), complex(0, -s))
	}
}

// applyFusedRXPair applies RX⊗RX on adjacent qubits (q, q+1). The
// quadruple (i00, i01, i10, i11) shares all other bits, so with
// adjacent qubits the four amplitudes sit in two contiguous runs —
// the cache-friendly case the fused sweep exploits.
func applyFusedRXPair(v Vec, q int, cc, ss, ics complex128) {
	stride := 1 << uint(q)
	for base := 0; base < len(v); base += 4 * stride {
		for off := 0; off < stride; off++ {
			i00 := base + off
			i01 := i00 + stride
			i10 := i00 + 2*stride
			i11 := i01 + 2*stride
			y00, y01, y10, y11 := v[i00], v[i01], v[i10], v[i11]
			v[i00] = cc*y00 + ics*y01 + ics*y10 + ss*y11
			v[i01] = ics*y00 + cc*y01 + ss*y10 + ics*y11
			v[i10] = ics*y00 + ss*y01 + cc*y10 + ics*y11
			v[i11] = ss*y00 + ics*y01 + ics*y10 + cc*y11
		}
	}
}

// ApplyUniformRXFusedPool is the worker-pool version of the fused
// mixer: each pass parallelizes over the quadruple index space.
func (p *Pool) ApplyUniformRXFused(v Vec, beta float64) {
	n := v.NumQubits()
	s, c := math.Sincos(beta)
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	q := 0
	for ; q+1 < n; q += 2 {
		p.rxPairPass(v, q, cc, ss, ics)
	}
	if q < n {
		p.ApplySU2(v, q, complex(c, 0), complex(0, -s))
	}
}

// rxPairPass is one pool pass of the fused mixer: RX⊗RX on the
// adjacent qubits (q, q+1), parallelized over the quadruple index
// space.
func (p *Pool) rxPairPass(v Vec, q int, cc, ss, ics complex128) {
	stride := 1 << uint(q)
	mask := stride - 1
	p.Run(len(v)/4, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i00 := (t>>uint(q))<<uint(q+2) | (t & mask)
			i01 := i00 + stride
			i10 := i00 + 2*stride
			i11 := i01 + 2*stride
			y00, y01, y10, y11 := v[i00], v[i01], v[i10], v[i11]
			v[i00] = cc*y00 + ics*y01 + ics*y10 + ss*y11
			v[i01] = ics*y00 + cc*y01 + ss*y10 + ics*y11
			v[i10] = ics*y00 + ss*y01 + cc*y10 + ics*y11
			v[i11] = ss*y00 + ics*y01 + ics*y10 + cc*y11
		}
	})
}

// ApplyUniformRXFused is the SoA version of the fused two-qubit mixer
// sweep, composing the split layout with F = 2 fusion — the fastest
// single-node mixer in this package.
func (sv *SoA) ApplyUniformRXFused(p *Pool, beta float64) {
	n := sv.NumQubits()
	s, c := math.Sincos(beta)
	cc := c * c
	ss := s * s
	cs := c * s
	q := 0
	for ; q+1 < n; q += 2 {
		sv.rxPairPass(p, q, cc, ss, cs)
	}
	if q < n {
		sv.ApplyRX(p, q, beta)
	}
}

// rxPairPass is one SoA pass of the fused mixer: RX⊗RX on the adjacent
// qubits (q, q+1) with cc = cos²β, ss = sin²β, cs = cosβ·sinβ.
func (sv *SoA) rxPairPass(p *Pool, q int, cc, ss, cs float64) {
	stride := 1 << uint(q)
	mask := stride - 1
	re, im := sv.Re, sv.Im
	p.Run(len(re)/4, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i00 := (t>>uint(q))<<uint(q+2) | (t & mask)
			i01 := i00 + stride
			i10 := i00 + 2*stride
			i11 := i01 + 2*stride
			r00, m00 := re[i00], im[i00]
			r01, m01 := re[i01], im[i01]
			r10, m10 := re[i10], im[i10]
			r11, m11 := re[i11], im[i11]
			// (cc − i·cs·(01+10) − ss·(11)) pattern expanded into
			// real arithmetic: −i·x has re = im(x), im = −re(x).
			re[i00] = cc*r00 + cs*(m01+m10) - ss*r11
			im[i00] = cc*m00 - cs*(r01+r10) - ss*m11
			re[i01] = cc*r01 + cs*(m00+m11) - ss*r10
			im[i01] = cc*m01 - cs*(r00+r11) - ss*m10
			re[i10] = cc*r10 + cs*(m00+m11) - ss*r01
			im[i10] = cc*m10 - cs*(r00+r11) - ss*m01
			re[i11] = cc*r11 + cs*(m01+m10) - ss*r00
			im[i11] = cc*m11 - cs*(r01+r10) - ss*m00
		}
	})
}
