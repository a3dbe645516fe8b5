package statevec

import "math"

// This file holds the fused phase+mixer layer kernels. A QAOA layer is
// one elementwise diagonal phase multiply followed by the
// transverse-field mixer sweep; run separately those cost two full
// memory traversals where the first mixer pass could have absorbed the
// phase for free. Each kernel here folds e^{−iγ·c_x} into the first
// pass over the state, then finishes with the ordinary sweep over the
// remaining qubits. The F = 2 kernels (ApplyPhaseRXFused, one per
// representation) fold it into the first RX⊗RX quadruple pass and are
// the layer every pooled backend runs; ApplyPhaseRX folds it into the
// qubit-0 butterfly of Algorithm 2's per-qubit sweep and is the serial
// reference layer. Below n = 2 the F = 2 kernels run the phase pass and
// a single-qubit RX.
//
// The fused kernels compute the exact arithmetic sequence of the phase
// followed by the mixer — each amplitude is phased into a local
// temporary and then rotated with the same expressions the unfused
// kernels use — so their results are bit-identical to the separate
// passes, not merely close. The kernels take their factors from a
// Phase (sincos or an exact table, see phase.go).

// ApplyPhaseThenUniformRXFused is the split-layout combined phase +
// F = 2 fused sweep for a diagonal and γ, with sincos factors.
func (s *SoA) ApplyPhaseThenUniformRXFused(p *Pool, diag []float64, gamma, beta float64) {
	s.ApplyPhaseRXFused(p, Phase{Gamma: gamma, Diag: diag}, beta)
}

// ApplyPhaseRX applies e^{−iβΣX_i}·e^{−iγ·c} in one combined sweep:
// the phase is folded into the qubit-0 butterfly and qubits 1..n−1
// follow as plain Algorithm 1 passes.
func ApplyPhaseRX(v Vec, ph Phase, beta float64) {
	ph.check("ApplyPhaseRX", len(v))
	n := v.NumQubits()
	if n == 0 {
		ApplyPhase(v, ph)
		return
	}
	s64, c64 := math.Sincos(beta)
	a, b := complex(c64, 0), complex(0, -s64)
	phaseRXRange(v, &ph, a, b, 0, len(v)/2)
	for q := 1; q < n; q++ {
		ApplySU2(v, q, a, b)
	}
}

// phaseRXRange phases and rotates the qubit-0 pairs [lo, hi).
func phaseRXRange(v Vec, ph *Phase, a, b complex128, lo, hi int) {
	ac, bc := conj(a), conj(b)
	var cs, sn [phaseBlock]float64
	for s := 2 * lo; s < 2*hi; s += phaseBlock {
		c := cs[:min(phaseBlock, 2*hi-s)]
		ph.fill(s, c, sn[:])
		for j := 0; j < len(c); j += 2 {
			l1 := s + j
			l2 := l1 + 1
			y1 := v[l1] * complex(c[j], sn[j])
			y2 := v[l2] * complex(c[j+1], sn[j+1])
			v[l1] = a*y1 - bc*y2
			v[l2] = b*y1 + ac*y2
		}
	}
}

// ApplyPhaseRXFused combines the phase with the F = 2 fused mixer: the
// phase folds into the first RX⊗RX quadruple pass (qubits 0–1), the
// remaining pairs sweep as usual, and odd n finishes with one
// single-qubit pass.
func ApplyPhaseRXFused(v Vec, ph Phase, beta float64) {
	ph.check("ApplyPhaseRXFused", len(v))
	n := v.NumQubits()
	if n < 2 {
		ApplyPhase(v, ph)
		if n == 1 {
			ApplyRX(v, 0, beta)
		}
		return
	}
	s, c := math.Sincos(beta)
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	phaseRXPairRange(v, &ph, cc, ss, ics, 0, len(v)/4)
	q := 2
	for ; q+1 < n; q += 2 {
		applyFusedRXPair(v, q, cc, ss, ics)
	}
	if q < n {
		ApplySU2(v, q, complex(c, 0), complex(0, -s))
	}
}

// ApplyPhaseRXFused is the pool version of the combined phase + F = 2
// fused sweep: the Parallel backend's layer.
func (p *Pool) ApplyPhaseRXFused(v Vec, ph Phase, beta float64) {
	ph.check("ApplyPhaseRXFused", len(v))
	n := v.NumQubits()
	s, c := math.Sincos(beta)
	if n < 2 {
		p.ApplyPhase(v, ph)
		if n == 1 {
			p.ApplySU2(v, 0, complex(c, 0), complex(0, -s))
		}
		return
	}
	cc := complex(c*c, 0)
	ss := complex(-s*s, 0)
	ics := complex(0, -c*s)
	p.Run(len(v)/4, func(lo, hi int) { phaseRXPairRange(v, &ph, cc, ss, ics, lo, hi) })
	q := 2
	for ; q+1 < n; q += 2 {
		p.rxPairPass(v, q, cc, ss, ics)
	}
	if q < n {
		p.ApplySU2(v, q, complex(c, 0), complex(0, -s))
	}
}

// phaseRXPairRange phases and rotates the qubit-(0, 1) quadruples
// [lo, hi).
func phaseRXPairRange(v Vec, ph *Phase, cc, ss, ics complex128, lo, hi int) {
	var cs, sn [phaseBlock]float64
	for s := 4 * lo; s < 4*hi; s += phaseBlock {
		c := cs[:min(phaseBlock, 4*hi-s)]
		ph.fill(s, c, sn[:])
		for j := 0; j < len(c); j += 4 {
			i00 := s + j
			i01, i10, i11 := i00+1, i00+2, i00+3
			y00 := v[i00] * complex(c[j], sn[j])
			y01 := v[i01] * complex(c[j+1], sn[j+1])
			y10 := v[i10] * complex(c[j+2], sn[j+2])
			y11 := v[i11] * complex(c[j+3], sn[j+3])
			v[i00] = cc*y00 + ics*y01 + ics*y10 + ss*y11
			v[i01] = ics*y00 + cc*y01 + ss*y10 + ics*y11
			v[i10] = ics*y00 + ss*y01 + cc*y10 + ics*y11
			v[i11] = ss*y00 + ics*y01 + ics*y10 + cc*y11
		}
	}
}

// ApplyPhaseRXFused is the split-layout combined phase + F = 2 fused
// sweep: the SoA backend's layer.
func (sv *SoA) ApplyPhaseRXFused(p *Pool, ph Phase, beta float64) {
	ph.check("ApplyPhaseRXFused", len(sv.Re))
	n := sv.NumQubits()
	if n < 2 {
		sv.ApplyPhase(p, ph)
		if n == 1 {
			sv.ApplyRX(p, 0, beta)
		}
		return
	}
	s, c := math.Sincos(beta)
	cc := c * c
	ss := s * s
	cs := c * s
	re, im := sv.Re, sv.Im
	p.Run(len(re)/4, func(lo, hi int) {
		var fc, fs [phaseBlock]float64
		for b := 4 * lo; b < 4*hi; b += phaseBlock {
			f := fc[:min(phaseBlock, 4*hi-b)]
			ph.fill(b, f, fs[:])
			for j := 0; j < len(f); j += 4 {
				i00 := b + j
				i01, i10, i11 := i00+1, i00+2, i00+3
				p0s, p0c := fs[j], f[j]
				p1s, p1c := fs[j+1], f[j+1]
				p2s, p2c := fs[j+2], f[j+2]
				p3s, p3c := fs[j+3], f[j+3]
				r00 := re[i00]*p0c - im[i00]*p0s
				m00 := re[i00]*p0s + im[i00]*p0c
				r01 := re[i01]*p1c - im[i01]*p1s
				m01 := re[i01]*p1s + im[i01]*p1c
				r10 := re[i10]*p2c - im[i10]*p2s
				m10 := re[i10]*p2s + im[i10]*p2c
				r11 := re[i11]*p3c - im[i11]*p3s
				m11 := re[i11]*p3s + im[i11]*p3c
				re[i00] = cc*r00 + cs*(m01+m10) - ss*r11
				im[i00] = cc*m00 - cs*(r01+r10) - ss*m11
				re[i01] = cc*r01 + cs*(m00+m11) - ss*r10
				im[i01] = cc*m01 - cs*(r00+r11) - ss*m10
				re[i10] = cc*r10 + cs*(m00+m11) - ss*r01
				im[i10] = cc*m10 - cs*(r00+r11) - ss*m01
				re[i11] = cc*r11 + cs*(m01+m10) - ss*r00
				im[i11] = cc*m11 - cs*(r01+r10) - ss*m00
			}
		}
	})
	q := 2
	for ; q+1 < n; q += 2 {
		sv.rxPairPass(p, q, cc, ss, cs)
	}
	if q < n {
		sv.ApplyRX(p, q, beta)
	}
}

// ApplyPhaseRXFused is the single-precision combined phase + F = 2
// fused sweep.
func (s *SoA32) ApplyPhaseRXFused(p *Pool, ph Phase, beta float64) {
	ph.check("ApplyPhaseRXFused", len(s.Re))
	n := s.NumQubits()
	if n < 2 {
		s.ApplyPhase(p, ph)
		if n == 1 {
			s.ApplyRX(p, 0, beta)
		}
		return
	}
	sn64, cs64 := math.Sincos(beta)
	cc := float32(cs64 * cs64)
	ss := float32(sn64 * sn64)
	cs := float32(cs64 * sn64)
	re, im := s.Re, s.Im
	p.Run(len(re)/4, func(lo, hi int) {
		var fc, fs [phaseBlock]float64
		for b := 4 * lo; b < 4*hi; b += phaseBlock {
			f := fc[:min(phaseBlock, 4*hi-b)]
			ph.fill(b, f, fs[:])
			for j := 0; j < len(f); j += 4 {
				i00 := b + j
				i01, i10, i11 := i00+1, i00+2, i00+3
				p0s, p0c := float32(fs[j]), float32(f[j])
				p1s, p1c := float32(fs[j+1]), float32(f[j+1])
				p2s, p2c := float32(fs[j+2]), float32(f[j+2])
				p3s, p3c := float32(fs[j+3]), float32(f[j+3])
				r00 := re[i00]*p0c - im[i00]*p0s
				m00 := re[i00]*p0s + im[i00]*p0c
				r01 := re[i01]*p1c - im[i01]*p1s
				m01 := re[i01]*p1s + im[i01]*p1c
				r10 := re[i10]*p2c - im[i10]*p2s
				m10 := re[i10]*p2s + im[i10]*p2c
				r11 := re[i11]*p3c - im[i11]*p3s
				m11 := re[i11]*p3s + im[i11]*p3c
				re[i00] = cc*r00 + cs*(m01+m10) - ss*r11
				im[i00] = cc*m00 - cs*(r01+r10) - ss*m11
				re[i01] = cc*r01 + cs*(m00+m11) - ss*r10
				im[i01] = cc*m01 - cs*(r00+r11) - ss*m10
				re[i10] = cc*r10 + cs*(m00+m11) - ss*r01
				im[i10] = cc*m10 - cs*(r00+r11) - ss*m01
				re[i11] = cc*r11 + cs*(m01+m10) - ss*r00
				im[i11] = cc*m11 - cs*(r01+r10) - ss*m00
			}
		}
	})
	q := 2
	for ; q+1 < n; q += 2 {
		s.rxPairPass(p, q, cc, ss, cs)
	}
	if q < n {
		s.ApplyRX(p, q, beta)
	}
}
