package core

import (
	"fmt"

	"qokit/internal/statevec"
)

// This file implements adjoint-mode (reverse) differentiation of the
// QAOA objective E(γ,β) = ⟨γ,β|Ĉ|γ,β⟩ — the exact analytic gradient
// with respect to all 2p parameters for the cost of O(1) extra state
// evolutions, independent of p (the reverse-mode trick of Medvidović &
// Carleo, arXiv:2009.01760, specialized to this simulator's
// diagonal-phase + product-mixer structure).
//
// Writing the evolution as |ψ_p⟩ = V_p⋯V_1|s⟩ with V_ℓ = B(β_ℓ)G(γ_ℓ),
// where G is the diagonal phase operator and B the mixer, the engine
// keeps two states: the ket ψ and the cost-weighted bra λ, seeded as
// λ = Ĉ|ψ_p⟩ after one forward pass. Walking layers backwards, with
// ψ = ψ_ℓ and λ = (V_{ℓ+1}⋯V_p)†Ĉψ_p:
//
//	∂E/∂β_ℓ = 2·Im ⟨λ|M|ψ⟩          (mixer generator M, evaluated
//	                                 per commuting factor for the
//	                                 Trotterized xy mixers)
//	∂E/∂γ_ℓ = 2·Im ⟨λ|Ĉ|ψ⟩          (after undoing the mixer)
//
// while both states are evolved one layer backwards through the exact
// inverses B(−β_ℓ), G(−γ_ℓ). Each reduction is invariant under the
// inverse it sits next to when that inverse is applied to both states,
// so the reverse pass computes it in flight: per layer, one paired
// mixer sweep (statevec PairUniformRX) and one paired phase pass
// (PairPhase) walk ψ and λ together, and no separate reduction pass
// remains. A full gradient costs about three forward simulations. The
// paired mixer sweep is per-qubit on every backend, so on the pooled
// backends it undoes the forward F = 2 sweep to rounding rather than
// bit for bit; the gradients agree with the Serial reference to rtol
// 1e-10.

// GradBuffers is the reusable workspace of one adjoint gradient
// evaluation: the pair of state buffers (ket ψ, cost-weighted bra λ)
// the reverse pass evolves. Allocate once per goroutine with
// NewGradBuffers and reuse across arbitrarily many
// SimulateQAOAGradInto calls; after warm-up a gradient evaluation
// performs zero state-buffer allocations, quantized or not (per-γ phase
// tables are refilled in the buffers' own workspace, and only grow on
// first use). A GradBuffers must not be shared by concurrent
// evaluations — give each worker its own pair, the pattern
// internal/sweep.Engine.SweepGrad implements.
type GradBuffers struct {
	psi, lam *Result
}

// NewGradBuffers allocates a gradient workspace sized for this
// simulator's backend (two state buffers).
func (s *Simulator) NewGradBuffers() *GradBuffers {
	return &GradBuffers{psi: s.NewResult(), lam: s.NewResult()}
}

// SimulateQAOAGrad runs the adjoint gradient evaluation with fresh
// buffers: it returns the objective E(γ,β) together with the exact
// gradients ∂E/∂γ_ℓ and ∂E/∂β_ℓ for every layer. Batch and optimizer
// workloads should allocate a GradBuffers once and call
// SimulateQAOAGradInto instead.
func (s *Simulator) SimulateQAOAGrad(gamma, beta []float64) (energy float64, gradGamma, gradBeta []float64, err error) {
	w := s.NewGradBuffers()
	gradGamma = make([]float64, len(gamma))
	gradBeta = make([]float64, len(beta))
	energy, err = s.SimulateQAOAGradInto(w, gamma, beta, gradGamma, gradBeta)
	if err != nil {
		return 0, nil, nil, err
	}
	return energy, gradGamma, gradBeta, nil
}

// SimulateQAOAGradInto is SimulateQAOAGrad evolving into caller-owned
// storage: one forward pass fills w's ψ buffer, the cost-weighted
// reverse pass walks both buffers back through the layers, and the
// per-layer derivatives are written into gradGamma and gradBeta (which
// must have length p). w must come from NewGradBuffers on a simulator
// with the same backend and qubit count; its previous contents are
// overwritten. On return, w's ψ buffer no longer holds the final
// state — callers needing the state should run SimulateQAOAInto
// separately.
//
// Distinct GradBuffers may be evolved concurrently against one shared
// Simulator, exactly like Results in SimulateQAOAInto.
func (s *Simulator) SimulateQAOAGradInto(w *GradBuffers, gamma, beta, gradGamma, gradBeta []float64) (float64, error) {
	return s.gradInto(w, gamma, beta, nil, gradGamma, gradBeta)
}

// SimulateQAOAGradObsInto differentiates the expectation of a
// caller-supplied diagonal observable instead of the evolution cost:
// it returns ⟨obs⟩ after evolving under THIS simulator's cost diagonal
// together with ∂⟨obs⟩/∂γ_ℓ and ∂⟨obs⟩/∂β_ℓ. The reverse pass is the
// standard adjoint with one change — the bra is seeded λ = obs⊙ψ_p
// rather than Ĉ|ψ_p⟩; every per-layer reduction still runs against the
// evolution diagonal, because that is the generator the γ angles
// multiply. The light-cone backend uses this with obs = Z_uZ_v on a
// cone's root edge while evolving under the cone's full MaxCut cost.
// obs must have length 2^n; storage contracts match
// SimulateQAOAGradInto.
func (s *Simulator) SimulateQAOAGradObsInto(w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
	if len(obs) != 1<<uint(s.n) {
		return 0, fmt.Errorf("core: observable diagonal length %d, want 2^%d = %d", len(obs), s.n, 1<<uint(s.n))
	}
	return s.gradInto(w, gamma, beta, obs, gradGamma, gradBeta)
}

// gradInto is the adjoint gradient shared by the cost (obs == nil) and
// observable entry points: forward pass, λ seed, reverse pass.
func (s *Simulator) gradInto(w *GradBuffers, gamma, beta, obs, gradGamma, gradBeta []float64) (float64, error) {
	if len(gamma) != len(beta) {
		return 0, fmt.Errorf("core: len(gamma)=%d != len(beta)=%d", len(gamma), len(beta))
	}
	if len(gradGamma) != len(gamma) || len(gradBeta) != len(beta) {
		return 0, fmt.Errorf("core: gradient storage lengths (%d, %d) do not match depth p=%d",
			len(gradGamma), len(gradBeta), len(gamma))
	}
	if w == nil || w.psi == nil || w.lam == nil {
		return 0, fmt.Errorf("core: nil GradBuffers; use NewGradBuffers")
	}
	if err := s.SimulateQAOAInto(w.psi, gamma, beta); err != nil {
		return 0, err
	}
	if err := s.bindResult(w.lam); err != nil {
		return 0, err
	}
	// Seed the bra side: λ = Ĉ|ψ_p⟩, or obs⊙|ψ_p⟩ (the only
	// non-unitary step).
	var energy float64
	seed := s.diag
	if obs != nil {
		energy, seed = w.psi.ExpectationOf(obs), obs
	} else {
		energy = w.psi.Expectation()
	}
	s.copyState(w.lam, w.psi)
	s.mulVec(w.lam, seed)

	for l := len(gamma) - 1; l >= 0; l-- {
		gradBeta[l] = 2 * s.pairMixer(w.lam, w.psi, beta[l])
		if l > 0 {
			gradGamma[l] = 2 * s.pairPhase(w.lam, w.psi, -gamma[l])
		} else {
			// No earlier derivative needs the states: reduce only.
			gradGamma[l] = 2 * s.imDotDiag(w.lam, w.psi)
		}
	}
	return energy, nil
}

// pairMixer undoes the layer-β mixer on both states and returns
// Im ⟨λ|M|ψ⟩. For the transverse-field mixer one paired sweep does
// both; the Trotterized xy factors do not commute, so their sweep
// interleaves one edge reduction with one edge undo per state, in
// reverse application order.
func (s *Simulator) pairMixer(lam, psi *Result, beta float64) float64 {
	if s.opts.Mixer == MixerX {
		switch {
		case lam.soa32 != nil:
			return lam.soa32.PairUniformRX(s.pool, psi.soa32, -beta)
		case lam.soa != nil:
			return lam.soa.PairUniformRX(s.pool, psi.soa, -beta)
		case s.backend == BackendSerial:
			return statevec.PairUniformRX(lam.vec, psi.vec, -beta)
		default:
			return s.pool.PairUniformRX(lam.vec, psi.vec, -beta)
		}
	}
	var d float64
	for k := len(s.mixerPairs) - 1; k >= 0; k-- {
		e := s.mixerPairs[k]
		d += s.imDotXY(lam, psi, e.U, e.V)
		s.applyXYPair(psi, e.U, e.V, -beta)
		s.applyXYPair(lam, e.U, e.V, -beta)
	}
	return d
}

// pairPhase applies e^{−iγĈ} to both states (γ is negated by the
// caller to undo a layer) and returns Im ⟨λ|Ĉ|ψ⟩.
func (s *Simulator) pairPhase(lam, psi *Result, gamma float64) float64 {
	ph := s.phase(psi, gamma)
	switch {
	case lam.soa32 != nil:
		return lam.soa32.PairPhase(s.pool, psi.soa32, ph)
	case lam.soa != nil:
		return lam.soa.PairPhase(s.pool, psi.soa, ph)
	case s.backend == BackendSerial:
		return statevec.PairPhase(lam.vec, psi.vec, ph)
	default:
		return s.pool.PairPhase(lam.vec, psi.vec, ph)
	}
}

// copyState overwrites dst's amplitudes with src's (same backend, no
// allocation).
func (s *Simulator) copyState(dst, src *Result) {
	switch {
	case src.soa32 != nil:
		dst.soa32.Copy(src.soa32)
	case src.soa != nil:
		dst.soa.Copy(src.soa)
	default:
		copy(dst.vec, src.vec)
	}
}

// mulVec multiplies r elementwise by an arbitrary real diagonal.
func (s *Simulator) mulVec(r *Result, diag []float64) {
	switch {
	case r.soa32 != nil:
		r.soa32.MulDiag(s.pool, diag)
	case r.soa != nil:
		r.soa.MulDiag(s.pool, diag)
	case s.backend == BackendSerial:
		statevec.MulDiag(r.vec, diag)
	default:
		s.pool.MulDiag(r.vec, diag)
	}
}

// imDotDiag returns Im ⟨λ|Ĉ|ψ⟩ against the cached diagonal.
func (s *Simulator) imDotDiag(lam, psi *Result) float64 {
	switch {
	case lam.soa32 != nil:
		return lam.soa32.ImDotDiag(s.pool, psi.soa32, s.diag)
	case lam.soa != nil:
		return lam.soa.ImDotDiag(s.pool, psi.soa, s.diag)
	case s.backend == BackendSerial:
		return statevec.ImDotDiag(lam.vec, psi.vec, s.diag)
	default:
		return s.pool.ImDotDiag(lam.vec, psi.vec, s.diag)
	}
}

// imDotXY returns Im ⟨λ|(X_uX_v+Y_uY_v)/2|ψ⟩.
func (s *Simulator) imDotXY(lam, psi *Result, u, v int) float64 {
	switch {
	case lam.soa32 != nil:
		return lam.soa32.ImDotXY(s.pool, psi.soa32, u, v)
	case lam.soa != nil:
		return lam.soa.ImDotXY(s.pool, psi.soa, u, v)
	case s.backend == BackendSerial:
		return statevec.ImDotXY(lam.vec, psi.vec, u, v)
	default:
		return s.pool.ImDotXY(lam.vec, psi.vec, u, v)
	}
}

// applyXYPair applies one xy edge factor e^{−iβ(X_uX_v+Y_uY_v)/2}.
func (s *Simulator) applyXYPair(r *Result, u, v int, beta float64) {
	switch {
	case r.soa32 != nil:
		r.soa32.ApplyXY(s.pool, u, v, beta)
	case r.soa != nil:
		r.soa.ApplyXY(s.pool, u, v, beta)
	case s.backend == BackendSerial:
		statevec.ApplyXY(r.vec, u, v, beta)
	default:
		s.pool.ApplyXY(r.vec, u, v, beta)
	}
}
