package statevec

import (
	"fmt"
	"math"
)

// This file holds the paired kernels of the adjoint reverse pass
// (internal/core.SimulateQAOAGradInto). The reverse pass evolves the
// ket ψ and the cost-weighted bra λ backwards through the same
// operators and reads each parameter derivative off a reduction of the
// pair. Both reductions are invariant under the operator being undone,
// applied to both states:
//
//	Im ⟨λ|X_q|ψ⟩ under RX_{q'}(θ) ⊗ RX_{q'}(θ)  (RX_{q'} commutes with X_q)
//	Im ⟨λ|Ĉ|ψ⟩   under the shared diagonal phase (commutes with Ĉ)
//
// so each kernel walks ψ and λ together once, accumulating the
// derivative in flight while it applies the operator to both. A layer
// of the reverse pass is then two paired kernels — one mixer sweep
// and one phase pass — instead of a separate reduction pass plus two
// single-state undos for each operator. Per state, the arithmetic is
// exactly that of ApplyUniformRX / PhaseDiag (or ApplyPhase), so the
// evolved states are bit-identical to undoing each state on its own.

func checkPair(name string, lam, psi int) {
	if lam != psi {
		panic(fmt.Sprintf("statevec: %s length mismatch %d vs %d", name, lam, psi))
	}
}

// PairUniformRX applies the transverse-field mixer e^{−iβΣX_q} to both
// lam and psi as per-qubit sweeps and returns Σ_q Im ⟨λ|X_q|ψ⟩, each
// term accumulated in the sweep of its qubit.
func PairUniformRX(lam, psi Vec, beta float64) float64 {
	checkPair("PairUniformRX", len(lam), len(psi))
	n := lam.NumQubits()
	s, c := math.Sincos(beta)
	a, b := complex(c, 0), complex(0, -s)
	var d float64
	for q := 0; q < n; q++ {
		d += pairRXRange(lam, psi, q, a, b, 0, len(lam)/2)
	}
	return d
}

// PairUniformRX is the pool version of the paired mixer sweep.
func (p *Pool) PairUniformRX(lam, psi Vec, beta float64) float64 {
	checkPair("PairUniformRX", len(lam), len(psi))
	n := lam.NumQubits()
	s, c := math.Sincos(beta)
	a, b := complex(c, 0), complex(0, -s)
	var d float64
	for q := 0; q < n; q++ {
		d += p.Reduce(len(lam)/2, func(lo, hi int) float64 {
			return pairRXRange(lam, psi, q, a, b, lo, hi)
		})
	}
	return d
}

// pairRXRange rotates the qubit-q pairs [lo, hi) of both states and
// returns their share of Im ⟨λ|X_q|ψ⟩.
func pairRXRange(lam, psi Vec, q int, a, b complex128, lo, hi int) float64 {
	ac, bc := conj(a), conj(b)
	stride := 1 << uint(q)
	mask := stride - 1
	var d float64
	for t := lo; t < hi; t++ {
		l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
		l2 := l1 + stride
		x1, x2 := lam[l1], lam[l2]
		y1, y2 := psi[l1], psi[l2]
		d += real(x1)*imag(y2) - imag(x1)*real(y2) + real(x2)*imag(y1) - imag(x2)*real(y1)
		lam[l1] = a*x1 - bc*x2
		lam[l2] = b*x1 + ac*x2
		psi[l1] = a*y1 - bc*y2
		psi[l2] = b*y1 + ac*y2
	}
	return d
}

// PairPhase applies the phase operator ph to both lam and psi and
// returns Im ⟨λ|Ĉ|ψ⟩ against ph.Diag, accumulated in the same pass.
func PairPhase(lam, psi Vec, ph Phase) float64 {
	checkPair("PairPhase", len(lam), len(psi))
	ph.check("PairPhase", len(lam))
	return pairPhaseRange(lam, psi, &ph, 0, len(lam))
}

// PairPhase is the pool version of the paired phase pass.
func (p *Pool) PairPhase(lam, psi Vec, ph Phase) float64 {
	checkPair("PairPhase", len(lam), len(psi))
	ph.check("PairPhase", len(lam))
	return p.Reduce(len(lam), func(lo, hi int) float64 { return pairPhaseRange(lam, psi, &ph, lo, hi) })
}

func pairPhaseRange(lam, psi Vec, ph *Phase, lo, hi int) float64 {
	diag := ph.Diag
	var cs, sn [phaseBlock]float64
	var d float64
	for b := lo; b < hi; b += phaseBlock {
		c := cs[:min(phaseBlock, hi-b)]
		ph.fill(b, c, sn[:])
		for j := range c {
			i := b + j
			x, y := lam[i], psi[i]
			d += diag[i] * (real(x)*imag(y) - imag(x)*real(y))
			f := complex(c[j], sn[j])
			lam[i] = x * f
			psi[i] = y * f
		}
	}
	return d
}

// PairUniformRX applies e^{−iβΣX_q} to both s (as λ) and psi and
// returns Σ_q Im ⟨λ|X_q|ψ⟩.
func (s *SoA) PairUniformRX(p *Pool, psi *SoA, beta float64) float64 {
	checkPair("PairUniformRX", len(s.Re), len(psi.Re))
	n := s.NumQubits()
	sn, cs := math.Sincos(beta)
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	var d float64
	for q := 0; q < n; q++ {
		stride := 1 << uint(q)
		mask := stride - 1
		d += p.Reduce(len(lr)/2, func(lo, hi int) float64 {
			var acc float64
			for t := lo; t < hi; t++ {
				l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
				l2 := l1 + stride
				xr1, xi1 := lr[l1], li[l1]
				xr2, xi2 := lr[l2], li[l2]
				yr1, yi1 := pr[l1], pi[l1]
				yr2, yi2 := pr[l2], pi[l2]
				acc += xr1*yi2 - xi1*yr2 + xr2*yi1 - xi2*yr1
				lr[l1] = cs*xr1 + sn*xi2
				li[l1] = cs*xi1 - sn*xr2
				lr[l2] = cs*xr2 + sn*xi1
				li[l2] = cs*xi2 - sn*xr1
				pr[l1] = cs*yr1 + sn*yi2
				pi[l1] = cs*yi1 - sn*yr2
				pr[l2] = cs*yr2 + sn*yi1
				pi[l2] = cs*yi2 - sn*yr1
			}
			return acc
		})
	}
	return d
}

// PairPhase applies ph to both s (as λ) and psi and returns
// Im ⟨λ|Ĉ|ψ⟩ against ph.Diag.
func (s *SoA) PairPhase(p *Pool, psi *SoA, ph Phase) float64 {
	checkPair("PairPhase", len(s.Re), len(psi.Re))
	ph.check("PairPhase", len(s.Re))
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	diag := ph.Diag
	return p.Reduce(len(lr), func(lo, hi int) float64 {
		var fc, fs [phaseBlock]float64
		var acc float64
		for b := lo; b < hi; b += phaseBlock {
			c := fc[:min(phaseBlock, hi-b)]
			ph.fill(b, c, fs[:])
			for j := range c {
				i := b + j
				cs, sn := c[j], fs[j]
				xr, xi := lr[i], li[i]
				yr, yi := pr[i], pi[i]
				acc += diag[i] * (xr*yi - xi*yr)
				lr[i] = xr*cs - xi*sn
				li[i] = xr*sn + xi*cs
				pr[i] = yr*cs - yi*sn
				pi[i] = yr*sn + yi*cs
			}
		}
		return acc
	})
}

// PairUniformRX applies e^{−iβΣX_q} to both s (as λ) and psi in single
// precision and returns Σ_q Im ⟨λ|X_q|ψ⟩ accumulated in float64.
func (s *SoA32) PairUniformRX(p *Pool, psi *SoA32, beta float64) float64 {
	checkPair("PairUniformRX", len(s.Re), len(psi.Re))
	n := s.NumQubits()
	sn64, cs64 := math.Sincos(beta)
	sn, cs := float32(sn64), float32(cs64)
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	var d float64
	for q := 0; q < n; q++ {
		stride := 1 << uint(q)
		mask := stride - 1
		d += p.Reduce(len(lr)/2, func(lo, hi int) float64 {
			var acc float64
			for t := lo; t < hi; t++ {
				l1 := (t>>uint(q))<<uint(q+1) | (t & mask)
				l2 := l1 + stride
				xr1, xi1 := lr[l1], li[l1]
				xr2, xi2 := lr[l2], li[l2]
				yr1, yi1 := pr[l1], pi[l1]
				yr2, yi2 := pr[l2], pi[l2]
				acc += float64(xr1)*float64(yi2) - float64(xi1)*float64(yr2) +
					float64(xr2)*float64(yi1) - float64(xi2)*float64(yr1)
				lr[l1] = cs*xr1 + sn*xi2
				li[l1] = cs*xi1 - sn*xr2
				lr[l2] = cs*xr2 + sn*xi1
				li[l2] = cs*xi2 - sn*xr1
				pr[l1] = cs*yr1 + sn*yi2
				pi[l1] = cs*yi1 - sn*yr2
				pr[l2] = cs*yr2 + sn*yi1
				pi[l2] = cs*yi2 - sn*yr1
			}
			return acc
		})
	}
	return d
}

// PairPhase applies ph to both s (as λ) and psi in single precision
// and returns Im ⟨λ|Ĉ|ψ⟩ against ph.Diag, accumulated in float64.
func (s *SoA32) PairPhase(p *Pool, psi *SoA32, ph Phase) float64 {
	checkPair("PairPhase", len(s.Re), len(psi.Re))
	ph.check("PairPhase", len(s.Re))
	lr, li := s.Re, s.Im
	pr, pi := psi.Re, psi.Im
	diag := ph.Diag
	return p.Reduce(len(lr), func(lo, hi int) float64 {
		var fc, fs [phaseBlock]float64
		var acc float64
		for b := lo; b < hi; b += phaseBlock {
			c := fc[:min(phaseBlock, hi-b)]
			ph.fill(b, c, fs[:])
			for j := range c {
				i := b + j
				cs, sn := float32(c[j]), float32(fs[j])
				xr, xi := lr[i], li[i]
				yr, yi := pr[i], pi[i]
				acc += diag[i] * (float64(xr)*float64(yi) - float64(xi)*float64(yr))
				lr[i] = xr*cs - xi*sn
				li[i] = xr*sn + xi*cs
				pr[i] = yr*cs - yi*sn
				pi[i] = yr*sn + yi*cs
			}
		}
		return acc
	})
}
