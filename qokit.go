// Package qokit is a fast simulator for the Quantum Approximate
// Optimization Algorithm (QAOA), a Go reproduction of the system
// described in Lykov et al., "Fast Simulation of High-Depth QAOA
// Circuits" (SC 2023, arXiv:2309.04841) and its QOKit framework.
//
// The central idea: QAOA's phase operator is diagonal and identical in
// every layer and every objective evaluation, so the simulator
// precomputes the 2^n cost diagonal once per problem. Each layer then
// costs one elementwise multiply plus n in-place mixer sweeps
// (Algorithm 1–2 of the paper), and the QAOA objective is a single
// inner product — orders of magnitude cheaper than gate-by-gate
// simulation for dense, high-order objectives like LABS.
//
// Mirroring QOKit, the package has two levels:
//
//   - one-line helpers for common problems (MaxCutTerms, LABSTerms,
//     SATTerms, PortfolioData.PortfolioTerms) feeding NewSimulator,
//   - a low-level API (ChooseSimulator, Options, backends, mixers,
//     diagonal quantization, the distributed engine) for everything
//     else.
//
// A minimal end-to-end evaluation of the QAOA objective — the paper's
// Listing 1 — looks like:
//
//	terms := qokit.AllToAllMaxCutTerms(16, 0.3)
//	sim, err := qokit.NewSimulator(16, terms, qokit.Options{})
//	if err != nil { ... }
//	res, err := sim.SimulateQAOA(gamma, beta)
//	if err != nil { ... }
//	energy := res.Expectation()
package qokit

import (
	"qokit/internal/core"
	"qokit/internal/costvec"
	"qokit/internal/poly"
	"qokit/internal/statevec"
	"qokit/internal/sweep"
)

// Term is one weighted monomial of a cost polynomial on spins
// s_i ∈ {−1, +1} (Eq. 1 of the paper). An empty variable list is a
// constant offset.
type Term = poly.Term

// Terms is a cost polynomial: the sum of its terms.
type Terms = poly.Terms

// NewTerm builds a term from a weight and variable indices.
func NewTerm(w float64, vars ...int) Term { return poly.NewTerm(w, vars...) }

// NewTerms builds a polynomial from terms.
func NewTerms(terms ...Term) Terms { return poly.New(terms...) }

// StateVector is a dense 2^n vector of complex amplitudes; index bit i
// is qubit i.
type StateVector = statevec.Vec

// Options configures a Simulator (backend, mixer, worker count,
// initial state, uint16 diagonal quantization, the RecomputePhase ablation).
type Options = core.Options

// Simulator is a QAOA fast simulator bound to one problem instance;
// construct it once and reuse it for every parameter evaluation.
type Simulator = core.Simulator

// Result is an evolved QAOA state; use its output methods
// (Expectation, Overlap, StateVector, Probabilities).
type Result = core.Result

// Backend selects the execution engine.
type Backend = core.Backend

// Backends, in QOKit terms: Serial ≈ "python", Parallel ≈ "c",
// SoA ≈ "nbcuda" (the GPU-analogue split-layout engine). Auto picks
// SoA.
const (
	BackendAuto     = core.BackendAuto
	BackendSerial   = core.BackendSerial
	BackendParallel = core.BackendParallel
	BackendSoA      = core.BackendSoA
)

// Mixer selects the QAOA mixing operator.
type Mixer = core.Mixer

// Mixers: the transverse-field mixer and the two Hamming-weight-
// preserving xy mixers of the paper's §III-B.
const (
	MixerX          = core.MixerX
	MixerXYRing     = core.MixerXYRing
	MixerXYComplete = core.MixerXYComplete
)

// NewSimulator builds a simulator for an n-qubit problem from its cost
// polynomial, precomputing the cost diagonal (the paper's Fig. 1
// pipeline). This is the analogue of instantiating a QOKit simulator
// class with the terms argument.
func NewSimulator(n int, terms Terms, opts Options) (*Simulator, error) {
	return core.New(n, terms, opts)
}

// NewSimulatorFromDiagonal builds a simulator from a precomputed cost
// diagonal (QOKit's costs argument). The diagonal is shared, not
// copied.
func NewSimulatorFromDiagonal(n int, diag []float64, opts Options) (*Simulator, error) {
	return core.NewFromDiagonal(n, diag, opts)
}

// ChooseSimulator mirrors qokit.fur.choose_simulator: it resolves a
// backend name ("auto", "serial"/"python", "parallel"/"c",
// "soa"/"nbcuda") into a constructor with the transverse-field mixer.
func ChooseSimulator(name string) (func(n int, terms Terms) (*Simulator, error), error) {
	return chooseWithMixer(name, MixerX)
}

// ChooseSimulatorXYRing is ChooseSimulator with the xy-ring mixer
// (QOKit's choose_simulator_xyring).
func ChooseSimulatorXYRing(name string) (func(n int, terms Terms) (*Simulator, error), error) {
	return chooseWithMixer(name, MixerXYRing)
}

// ChooseSimulatorXYComplete is ChooseSimulator with the xy-complete
// mixer (QOKit's choose_simulator_xycomplete).
func ChooseSimulatorXYComplete(name string) (func(n int, terms Terms) (*Simulator, error), error) {
	return chooseWithMixer(name, MixerXYComplete)
}

func chooseWithMixer(name string, mixer Mixer) (func(n int, terms Terms) (*Simulator, error), error) {
	backend, err := core.ParseBackend(name)
	if err != nil {
		return nil, err
	}
	return func(n int, terms Terms) (*Simulator, error) {
		return core.New(n, terms, Options{Backend: backend, Mixer: mixer})
	}, nil
}

// SweepPoint is one QAOA parameter set (γ and β schedules of equal
// length) in a batch evaluation.
type SweepPoint = sweep.Point

// SweepResult holds the observables evaluated at one sweep point.
type SweepResult = sweep.Result

// SweepOptions configures a SweepEngine (worker count, whether to
// also compute overlaps).
type SweepOptions = sweep.Options

// SweepEngine is the concurrent batch evaluator: one shared simulator
// (one precomputed diagonal), a worker pool, and one reusable state
// buffer per worker, so arbitrarily large parameter sweeps perform no
// per-point state-vector allocations. This is the intended engine for
// optimizer loops, landscape scans, and any service evaluating many
// (γ, β) points against one problem.
type SweepEngine = sweep.Engine

// NewSweepEngine builds a batch evaluator over sim. The simulator is
// shared by every worker — exactly the reuse the paper's precomputed
// diagonal is designed for.
func NewSweepEngine(sim *Simulator, opts SweepOptions) *SweepEngine {
	return sweep.New(sim, opts)
}

// SweepGrid builds the p = 1 cartesian product of γ and β values in
// row-major order (β varies fastest) — the landscape-scan batch of the
// paper's Figs. 3–4.
func SweepGrid(gammas, betas []float64) []SweepPoint {
	return sweep.Grid(gammas, betas)
}

// SweepArgMin returns the index of the lowest-energy result. An empty
// (or nil) batch returns −1, never a panic — callers must check the
// sign before indexing, exactly like a not-found sentinel.
func SweepArgMin(results []SweepResult) int {
	return sweep.ArgMin(results)
}

// ArgMinEnergies is SweepArgMin over a bare energy slice — the shape
// Service.EnergyBatch returns. Same −1-on-empty contract.
func ArgMinEnergies(energies []float64) int {
	return sweep.ArgMinEnergies(energies)
}

// PrecomputeDiagonal evaluates the cost diagonal for the given terms
// without building a simulator — useful for inspecting the spectrum or
// feeding NewSimulatorFromDiagonal.
func PrecomputeDiagonal(n int, terms Terms) ([]float64, error) {
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	return costvec.PrecomputePool(statevec.NewPool(0), poly.Compile(terms), n), nil
}

// GroundStates returns the indices attaining the minimum of a cost
// diagonal within tol.
func GroundStates(diag []float64, tol float64) []uint64 {
	return costvec.GroundStates(diag, tol)
}
