// Package grad is the adjoint-mode gradient engine: it evaluates the
// QAOA objective together with its exact gradient with respect to all
// 2p parameters against one shared simulator, at the cost of O(1)
// extra state evolutions per evaluation (core.SimulateQAOAGradInto's
// forward + cost-weighted reverse pass), independent of depth.
//
// The engine mirrors internal/sweep's buffer-reuse design: workspaces
// (pairs of state buffers) are pooled across calls, so a warmed-up
// optimizer loop performs zero per-evaluation state-buffer
// allocations, and concurrent evaluations against the shared
// simulator each draw their own workspace. Gradient-based optimizers
// (internal/optimize.Adam, GradientDescent) plug in through
// FlatObjective; FiniteDiffGrad supplies the 4p-simulation baseline
// the differential tests and `qaoabench grad` compare against.
package grad

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"qokit/internal/core"
	"qokit/internal/evaluator"
)

// Engine evaluates energies and adjoint gradients against one shared
// *core.Simulator. It is safe for concurrent use: each evaluation
// draws a pooled workspace, and the simulator itself is read-only
// during evolution.
type Engine struct {
	sim *core.Simulator
	// maxPooled caps both free lists at GOMAXPROCS buffers — a burst
	// of concurrent evaluations beyond that allocates transiently, but
	// the engine never pins more state-vector memory than a fully
	// parallel steady state needs (the same cap sweep.Engine applies).
	maxPooled int

	mu   sync.Mutex
	free []*core.GradBuffers
	// freeRes pools plain state buffers for the finite-difference
	// baseline path.
	freeRes []*core.Result
}

// New builds a gradient engine over sim. The simulator is shared, not
// copied.
func New(sim *core.Simulator) *Engine {
	return &Engine{sim: sim, maxPooled: runtime.GOMAXPROCS(0)}
}

// Sim returns the shared simulator.
func (e *Engine) Sim() *core.Simulator { return e.sim }

func (e *Engine) acquire() *core.GradBuffers {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		w := e.free[n-1]
		e.free = e.free[:n-1]
		e.mu.Unlock()
		return w
	}
	e.mu.Unlock()
	return e.sim.NewGradBuffers()
}

func (e *Engine) release(w *core.GradBuffers) {
	e.mu.Lock()
	if len(e.free) < e.maxPooled {
		e.free = append(e.free, w)
	}
	e.mu.Unlock()
}

func (e *Engine) acquireRes() *core.Result {
	e.mu.Lock()
	if n := len(e.freeRes); n > 0 {
		r := e.freeRes[n-1]
		e.freeRes = e.freeRes[:n-1]
		e.mu.Unlock()
		return r
	}
	e.mu.Unlock()
	return e.sim.NewResult()
}

func (e *Engine) releaseRes(r *core.Result) {
	e.mu.Lock()
	if len(e.freeRes) < e.maxPooled {
		e.freeRes = append(e.freeRes, r)
	}
	e.mu.Unlock()
}

// EnergyGradAngles evaluates E(γ,β) and writes the exact adjoint
// gradients ∂E/∂γ_ℓ, ∂E/∂β_ℓ into gradGamma and gradBeta (length p
// each) through a pooled workspace.
func (e *Engine) EnergyGradAngles(ctx context.Context, gamma, beta, gradGamma, gradBeta []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	w := e.acquire()
	defer e.release(w)
	return e.sim.SimulateQAOAGradInto(w, gamma, beta, gradGamma, gradBeta)
}

// The gradient engine implements evaluator.Evaluator: point energies
// run through pooled plain state buffers, gradients through pooled
// adjoint workspaces.
var _ evaluator.Evaluator = (*Engine)(nil)

// Energy evaluates the objective at the flat parameter vector through
// a pooled state buffer (evaluator.Evaluator).
func (e *Engine) Energy(ctx context.Context, x []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	r := e.acquireRes()
	defer e.releaseRes(r)
	if err := e.sim.SimulateQAOAInto(r, gamma, beta); err != nil {
		return 0, err
	}
	return r.Expectation(), nil
}

// EnergyGrad evaluates the objective and its exact adjoint gradient at
// the flat parameter vector, writing ∇E into grad
// (evaluator.Evaluator).
func (e *Engine) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	gamma, beta, err := evaluator.SplitFlat(x)
	if err != nil {
		return 0, err
	}
	if err := evaluator.CheckGradStorage(x, grad); err != nil {
		return 0, err
	}
	p := len(gamma)
	return e.EnergyGradAngles(ctx, gamma, beta, grad[:p], grad[p:])
}

// Caps reports the engine's evaluation metadata.
func (e *Engine) Caps() evaluator.Caps {
	c := e.sim.Caps()
	c.MaxConcurrent = e.maxPooled
	return c
}

// EvalOutputs serves the measurement-style output contract
// (evaluator.OutputEvaluator) by delegating to the underlying
// simulator; the call owns its buffers, so it is safe alongside
// pooled gradient evaluations.
func (e *Engine) EvalOutputs(ctx context.Context, x []float64, spec evaluator.OutputSpec) (*evaluator.Outputs, error) {
	return e.sim.EvalOutputs(ctx, x, spec)
}

var _ evaluator.OutputEvaluator = (*Engine)(nil)

// StreamSamples serves the chunked sampling contract
// (evaluator.SampleStreamer) by delegating to the underlying
// simulator.
func (e *Engine) StreamSamples(ctx context.Context, x []float64, spec evaluator.OutputSpec, fn func(chunk []uint64) error) error {
	return e.sim.StreamSamples(ctx, x, spec, fn)
}

var _ evaluator.SampleStreamer = (*Engine)(nil)

// FlatObjective adapts the engine into a value-and-gradient objective
// over the flat parameter vector [γ₀…γ_{p−1}, β₀…β_{p−1}] — the form
// internal/optimize's gradient optimizers consume. The returned
// function writes ∇E into g and returns E. The first simulator error
// (including ctx cancellation) is latched into *simErr; subsequent
// calls return 0 without evaluating, so a cancelled optimizer loop
// unwinds after at most one more iteration.
func (e *Engine) FlatObjective(ctx context.Context, simErr *error) func(x, g []float64) float64 {
	return func(x, g []float64) float64 {
		if *simErr != nil {
			return 0
		}
		v, err := e.EnergyGrad(ctx, x, g)
		if err != nil {
			*simErr = err
			return 0
		}
		return v
	}
}

// FiniteDiffGrad evaluates the gradient by central finite differences
// (4p full simulations through one pooled state buffer) and returns
// the center energy. step ≤ 0 selects 1e-6. This is the baseline the
// adjoint engine is differentially tested against and the workload
// `qaoabench grad` times; production code should call EnergyGrad.
// Cancellation is honored between the 4p+1 simulations.
func (e *Engine) FiniteDiffGrad(ctx context.Context, gamma, beta []float64, step float64, gradGamma, gradBeta []float64) (float64, error) {
	if len(gamma) != len(beta) {
		return 0, fmt.Errorf("grad: len(gamma)=%d != len(beta)=%d", len(gamma), len(beta))
	}
	if len(gradGamma) != len(gamma) || len(gradBeta) != len(beta) {
		return 0, fmt.Errorf("grad: gradient storage lengths (%d, %d) do not match depth p=%d",
			len(gradGamma), len(gradBeta), len(gamma))
	}
	if step <= 0 {
		step = 1e-6
	}
	r := e.acquireRes()
	defer e.releaseRes(r)
	// Perturb copies so concurrent callers never race on shared angle
	// slices.
	g := append([]float64(nil), gamma...)
	b := append([]float64(nil), beta...)
	eval := func() (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if err := e.sim.SimulateQAOAInto(r, g, b); err != nil {
			return 0, err
		}
		return r.Expectation(), nil
	}
	energy, err := eval()
	if err != nil {
		return 0, err
	}
	for _, half := range []struct {
		ang  []float64
		grad []float64
	}{{g, gradGamma}, {b, gradBeta}} {
		for l := range half.ang {
			orig := half.ang[l]
			half.ang[l] = orig + step
			ep, err := eval()
			if err != nil {
				return 0, err
			}
			half.ang[l] = orig - step
			em, err := eval()
			if err != nil {
				return 0, err
			}
			half.ang[l] = orig
			half.grad[l] = (ep - em) / (2 * step)
		}
	}
	return energy, nil
}
