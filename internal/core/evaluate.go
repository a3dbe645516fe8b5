package core

import (
	"context"

	"qokit/internal/evaluator"
)

// The Simulator implements evaluator.Evaluator directly: each call
// evolves a fresh state buffer, so it is safe for any number of
// concurrent evaluations (the simulator itself is read-only during
// evolution) at the cost of one state allocation per call. Sustained
// workloads should prefer the pooled engines (internal/sweep,
// internal/grad), which implement the same contract with zero warm
// allocations.
var _ evaluator.Evaluator = (*Simulator)(nil)

// Energy evaluates the QAOA objective at the flat parameter vector
// [γ₀…γ_{p−1}, β₀…β_{p−1}].
func (s *Simulator) Energy(ctx context.Context, x []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	r := s.NewResult()
	if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
		return 0, err
	}
	return r.Expectation(), nil
}

// EnergyGrad evaluates the objective and its exact adjoint gradient at
// the flat parameter vector, writing ∇E into grad.
func (s *Simulator) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	if err := evaluator.CheckGradStorage(x, grad); err != nil {
		return 0, err
	}
	p := len(gamma)
	w := s.NewGradBuffers()
	return s.SimulateQAOAGradInto(w, gamma, beta, grad[:p], grad[p:])
}

// Caps reports the simulator's evaluation metadata: gradient-capable,
// no concurrency limit (every call owns its buffers), single rank.
func (s *Simulator) Caps() evaluator.Caps {
	return evaluator.Caps{
		NumQubits:  s.n,
		Grad:       true,
		Ranks:      1,
		StateBytes: s.stateBytes(),
		Outputs:    true,
		Streaming:  true,
	}
}

// stateBytes is the size of one state buffer under this backend.
func (s *Simulator) stateBytes() int64 {
	size := int64(1) << uint(s.n)
	if s.backend == BackendSoA && s.opts.SinglePrecision {
		return 8 * size // float32 Re + Im
	}
	return 16 * size // complex128, or float64 Re + Im
}
