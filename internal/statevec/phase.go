package statevec

import (
	"fmt"
	"math"
)

// This file holds the table-driven phase operator. The paper's central
// observation is that a precomputed diagonal makes the phase operator
// e^{−iγĈ} one elementwise multiply (§III-A); on a CPU that multiply is
// dominated not by reading the diagonal but by the per-amplitude
// sincos. Integer-cost problems (MaxCut, LABS, …) take only a few
// thousand distinct values, so the factors can be read from a per-γ
// table instead — the §V-B quantized path's trick, here applied to the
// float64 diagonal without storing any codes: the level of amplitude x
// is recovered as int((c_x − Min)/Scale).
//
// The table is exact, not an approximation. A PhaseGrid is only
// granted when every diagonal value is bitwise Min + k·Scale, and the
// table entry for level k is sincos(−γ·(Min + k·Scale)) — the very
// argument the sincos kernels pass for that amplitude. Table and
// sincos kernels are therefore bit-identical, and a diagonal that does
// not qualify (Gaussian SK weights, ranges too wide for a table)
// simply keeps sincos.
//
// The kernels take a Phase, which names the factor source of one
// application, evaluate its factors a block at a time into stack
// buffers, and apply them with one fixed arithmetic sequence per
// representation (the plain phase kernels apply sincos factors as they
// evaluate them, having no other work to amortize a buffer over). The
// diagonal-and-γ forms (PhaseDiag, SoA.ApplyPhaseThenUniformRXFused)
// are the same kernels with sincos factors.

// MaxPhaseLevels bounds a phase table: the uint16 code space of the
// quantized diagonal, 1 MiB of complex128 factors.
const MaxPhaseLevels = 1 << 16

// phaseBlock is the number of factors evaluated per stack buffer.
const phaseBlock = 256

// PhaseGrid describes a cost diagonal whose every value is exactly
// Min + k·Scale for an integer level k in [0, Levels). Codes, when
// set, holds each amplitude's level (the uint16-quantized diagonal);
// otherwise the kernels recover k from the float64 diagonal. The zero
// value (Levels 0) describes no grid: phases are evaluated with sincos.
type PhaseGrid struct {
	Min, Scale float64
	Levels     int
	Codes      []uint16
}

// DiagGrid returns the grid of diag at the first of the given scales
// under which every value is bitwise Min + k·Scale — Min the smallest
// value, k an integer below maxLevels — or the zero grid if no scale
// qualifies. Scales should be powers of two (costvec.AutoScales), so
// that k·Scale is exact.
func DiagGrid(diag []float64, scales []float64, maxLevels int) PhaseGrid {
	if len(diag) == 0 {
		return PhaseGrid{}
	}
	lo := diag[0]
	for _, v := range diag {
		if v < lo {
			lo = v
		}
	}
	for _, scale := range scales {
		if levels, ok := gridLevels(diag, lo, scale, maxLevels); ok {
			return PhaseGrid{Min: lo, Scale: scale, Levels: levels}
		}
	}
	return PhaseGrid{}
}

// gridLevels checks diag against one scale with the exact index
// expression the kernels use, returning the number of levels in use.
func gridLevels(diag []float64, lo, scale float64, maxLevels int) (int, bool) {
	if !(scale > 0) {
		return 0, false
	}
	inv := 1 / scale
	levels := 0
	for _, v := range diag {
		f := (v - lo) * inv
		if !(f >= 0 && f < float64(maxLevels)) {
			return 0, false
		}
		k := int(f)
		if math.Float64bits(lo+scale*float64(k)) != math.Float64bits(v) {
			return 0, false
		}
		if k >= levels {
			levels = k + 1
		}
	}
	return levels, true
}

// PhaseTable is a reusable workspace for one grid's factors
// e^{−iγ(Min+k·Scale)} at one γ. It is refilled only when the grid or
// γ changes, and grows to the largest grid seen, so a warm table costs
// no allocation. A PhaseTable belongs to one evaluation at a time; it
// is not safe for concurrent use.
type PhaseTable struct {
	fac               []complex128
	gamma, min, scale uint64 // bit patterns of the key fac holds
}

// factors returns the table for grid g at gamma, refilling it if the
// key changed.
func (t *PhaseTable) factors(g *PhaseGrid, gamma float64) []complex128 {
	gb, mb, sb := math.Float64bits(gamma), math.Float64bits(g.Min), math.Float64bits(g.Scale)
	if len(t.fac) == g.Levels && t.gamma == gb && t.min == mb && t.scale == sb {
		return t.fac
	}
	if cap(t.fac) < g.Levels {
		t.fac = make([]complex128, g.Levels)
	}
	t.fac = t.fac[:g.Levels]
	for k := range t.fac {
		s, c := math.Sincos(-gamma * (g.Min + g.Scale*float64(k)))
		t.fac[k] = complex(c, s)
	}
	t.gamma, t.min, t.scale = gb, mb, sb
	return t.fac
}

// Phase is one application of the diagonal phase operator e^{−iγ·c}
// for the cost diagonal c = Diag. The literal Phase{Gamma, Diag}
// evaluates every factor with sincos; NewPhase reads them from a
// table when the diagonal lies on a grid. Both produce bit-identical
// states.
type Phase struct {
	Gamma float64
	Diag  []float64

	fac      []complex128 // table factors; nil selects sincos
	codes    []uint16     // per-amplitude levels; nil: from Diag
	min, inv float64
}

// NewPhase returns the phase operator e^{−iγ·diag}. When g describes
// diag (Levels > 0) the factors come from t, filled for gamma on
// demand; otherwise they are evaluated with sincos and t is unused.
func NewPhase(diag []float64, gamma float64, g *PhaseGrid, t *PhaseTable) Phase {
	ph := Phase{Gamma: gamma, Diag: diag}
	if g == nil || g.Levels == 0 {
		return ph
	}
	ph.fac = t.factors(g, gamma)
	ph.codes = g.Codes
	ph.min, ph.inv = g.Min, 1/g.Scale
	return ph
}

func (ph *Phase) check(name string, size int) {
	if len(ph.Diag) != size || (ph.codes != nil && len(ph.codes) != size) {
		panic(fmt.Sprintf("statevec: %s length mismatch %d vs %d", name, size, len(ph.Diag)))
	}
}

// fill writes the factors (cos, sin) of amplitudes [lo, lo+len(cs))
// into cs and sn.
func (ph *Phase) fill(lo int, cs, sn []float64) {
	sn = sn[:len(cs)]
	switch {
	case ph.fac == nil:
		g := ph.Gamma
		for j, x := range ph.Diag[lo : lo+len(cs)] {
			sn[j], cs[j] = math.Sincos(-g * x)
		}
	case ph.codes != nil:
		fac := ph.fac
		for j, k := range ph.codes[lo : lo+len(cs)] {
			f := fac[k]
			cs[j], sn[j] = real(f), imag(f)
		}
	default:
		fac, base, inv, g := ph.fac, ph.min, ph.inv, ph.Gamma
		levels := float64(len(fac))
		for j, x := range ph.Diag[lo : lo+len(cs)] {
			if k := (x - base) * inv; k >= 0 && k < levels {
				f := fac[int(k)]
				cs[j], sn[j] = real(f), imag(f)
			} else {
				// Off the grid: the diagonal changed after DiagGrid
				// (a released registry diagonal is NaN-poisoned), so
				// evaluate sincos and let NaN reach the state.
				sn[j], cs[j] = math.Sincos(-g * x)
			}
		}
	}
}

// ApplyPhase multiplies amplitude x by e^{−iγ·c_x} in place (the
// Phase form of PhaseDiag).
func ApplyPhase(v Vec, ph Phase) {
	ph.check("ApplyPhase", len(v))
	phaseRange(v, &ph, 0, len(v))
}

// ApplyPhase is the pool version of the Phase form of PhaseDiag.
func (p *Pool) ApplyPhase(v Vec, ph Phase) {
	ph.check("ApplyPhase", len(v))
	p.Run(len(v), func(lo, hi int) { phaseRange(v, &ph, lo, hi) })
}

func phaseRange(v Vec, ph *Phase, lo, hi int) {
	if ph.fac == nil {
		g := ph.Gamma
		for i, x := range ph.Diag[lo:hi] {
			s, c := math.Sincos(-g * x)
			v[lo+i] *= complex(c, s)
		}
		return
	}
	var cs, sn [phaseBlock]float64
	for b := lo; b < hi; b += phaseBlock {
		c := cs[:min(phaseBlock, hi-b)]
		ph.fill(b, c, sn[:])
		for j := range c {
			v[b+j] *= complex(c[j], sn[j])
		}
	}
}

// ApplyPhase multiplies amplitude x by e^{−iγ·c_x} in place.
func (s *SoA) ApplyPhase(p *Pool, ph Phase) {
	ph.check("ApplyPhase", len(s.Re))
	re, im := s.Re, s.Im
	gamma, diag := ph.Gamma, ph.Diag
	p.Run(len(re), func(lo, hi int) {
		if ph.fac == nil {
			for i := lo; i < hi; i++ {
				sn, cs := math.Sincos(-gamma * diag[i])
				r, m := re[i], im[i]
				re[i] = r*cs - m*sn
				im[i] = r*sn + m*cs
			}
			return
		}
		var cs, sn [phaseBlock]float64
		for b := lo; b < hi; b += phaseBlock {
			c := cs[:min(phaseBlock, hi-b)]
			ph.fill(b, c, sn[:])
			for j := range c {
				i := b + j
				r, m := re[i], im[i]
				re[i] = r*c[j] - m*sn[j]
				im[i] = r*sn[j] + m*c[j]
			}
		}
	})
}

// ApplyPhase multiplies amplitude x by e^{−iγ·c_x} in place; factors
// are evaluated in float64 and rounded once.
func (s *SoA32) ApplyPhase(p *Pool, ph Phase) {
	ph.check("ApplyPhase", len(s.Re))
	re, im := s.Re, s.Im
	gamma, diag := ph.Gamma, ph.Diag
	p.Run(len(re), func(lo, hi int) {
		if ph.fac == nil {
			for i := lo; i < hi; i++ {
				sn64, cs64 := math.Sincos(-gamma * diag[i])
				sn, cs := float32(sn64), float32(cs64)
				r, m := re[i], im[i]
				re[i] = r*cs - m*sn
				im[i] = r*sn + m*cs
			}
			return
		}
		var cs, sn [phaseBlock]float64
		for b := lo; b < hi; b += phaseBlock {
			c := cs[:min(phaseBlock, hi-b)]
			ph.fill(b, c, sn[:])
			for j := range c {
				i := b + j
				fc, fs := float32(c[j]), float32(sn[j])
				r, m := re[i], im[i]
				re[i] = r*fc - m*fs
				im[i] = r*fs + m*fc
			}
		}
	})
}
