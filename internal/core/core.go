// Package core implements the paper's primary contribution: the fast
// QAOA simulator family (Algorithm 3). A simulator is constructed once
// per problem — precomputing and caching the cost diagonal — and then
// evaluates QAOA circuits |γ,β⟩ = Π_l e^{−iβ_l M} e^{−iγ_l Ĉ} |s⟩ for
// arbitrarily many parameter sets, which is exactly the access pattern
// of QAOA parameter optimization. Per layer it performs one
// elementwise diagonal multiply (phase operator) and one mixer sweep;
// the objective ⟨γ,β|Ĉ|γ,β⟩ is a single inner product against the
// cached diagonal.
//
// The transverse-field layer has one form per backend. The pooled
// backends run §VI's "gate fusion with F = 2": the mixer sweeps
// qubits two at a time (RX⊗RX on amplitude quadruples), and the phase
// folds into the first of those passes, so a layer costs ⌈n/2⌉
// traversals of the state. The Serial backend runs Algorithm 2
// literally, one qubit per pass, and is the reference every
// cross-backend differential test compares against. The xy mixers
// sweep their SU(4) factors edge by edge on every backend.
//
// Three single-node backends mirror QOKit's simulator classes:
//
//	Serial    — portable straight-line complex128 loops ("python")
//	Parallel  — worker-pool complex128 kernels ("c"/OpenMP analogue)
//	SoA       — worker-pool split real/imag kernels ("nbcuda"/GPU
//	            analogue; see internal/statevec for why SoA stands in
//	            for the vendor-tuned kernels)
//
// The distributed backends of §III-C live in internal/distsim and
// share this package's Mixer and options types.
package core

import (
	"fmt"
	"math/bits"

	"qokit/internal/costvec"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/statevec"
)

// Backend selects the execution engine.
type Backend int

const (
	// BackendAuto picks the fastest single-node backend (SoA).
	BackendAuto Backend = iota
	// BackendSerial is the portable reference engine.
	BackendSerial
	// BackendParallel runs complex128 kernels on a worker pool.
	BackendParallel
	// BackendSoA runs split real/imaginary kernels on a worker pool.
	BackendSoA
)

// String returns the canonical backend name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendSerial:
		return "serial"
	case BackendParallel:
		return "parallel"
	case BackendSoA:
		return "soa"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend resolves a backend name, accepting both this package's
// names and the corresponding QOKit simulator-class names.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "serial", "python":
		return BackendSerial, nil
	case "parallel", "c":
		return BackendParallel, nil
	case "soa", "nbcuda", "gpu":
		return BackendSoA, nil
	default:
		return 0, fmt.Errorf("core: unknown backend %q (want auto, serial/python, parallel/c, soa/nbcuda)", name)
	}
}

// Mixer selects the QAOA mixing operator.
type Mixer int

const (
	// MixerX is the transverse-field mixer e^{−iβΣX_i} (Algorithm 2).
	MixerX Mixer = iota
	// MixerXYRing applies one Trotter step of the Hamming-weight-
	// preserving xy mixer on ring edges (even pass then odd pass).
	MixerXYRing
	// MixerXYComplete applies one Trotter step of the xy mixer over
	// all qubit pairs in lexicographic order.
	MixerXYComplete
)

// String returns the canonical mixer name.
func (m Mixer) String() string {
	switch m {
	case MixerX:
		return "x"
	case MixerXYRing:
		return "xy-ring"
	case MixerXYComplete:
		return "xy-complete"
	default:
		return fmt.Sprintf("Mixer(%d)", int(m))
	}
}

// Options configures a Simulator. The zero value is the fastest
// configuration measured: the SoA backend running the F = 2
// pair-fused transverse-field layer on a GOMAXPROCS-sized pool, over a
// float64 diagonal. How the layer executes is fixed per backend; see
// the package doc.
type Options struct {
	Backend Backend
	Mixer   Mixer
	// Workers sets the pool size for the Parallel and SoA backends
	// (≤ 0 means GOMAXPROCS). The Serial backend always runs
	// single-threaded: any Workers value is normalized to 1 at
	// construction (observable through Simulator.Workers), never
	// silently retained.
	Workers int
	// InitialState overrides the default initial state (uniform
	// superposition for MixerX, a Dicke state for the xy mixers). The
	// vector is copied; it must have length 2^n.
	InitialState statevec.Vec
	// HammingWeight is the Dicke-state weight for xy mixers; ≤ 0
	// defaults to n/2. Ignored for MixerX.
	HammingWeight int
	// Quantize stores the diagonal as uint16 codes (§V-B). It fails at
	// construction if the costs are not exactly representable; the
	// phase operator then runs through per-γ lookup tables.
	Quantize bool
	// QuantScale fixes the quantization step; 0 selects automatically.
	QuantScale float64
	// SinglePrecision stores the state as float32 pairs (8 bytes per
	// amplitude instead of 16), the complex64 mode of the paper's §V
	// baselines: one more qubit fits in the same memory, at the cost
	// of accumulating rounding error with depth (measured by
	// `qaoabench precision`). Requires the SoA (or Auto) backend.
	SinglePrecision bool
	// RecomputePhase disables the paper's central optimization: the
	// phase operator re-evaluates the cost polynomial term-by-term on
	// every layer (O(|T|·2^n) per layer) instead of reading the cached
	// diagonal. This is the ablation baseline standing in for
	// OpenQAOA-style simulators in Fig. 2; the phase runs as its own
	// pass and the mixer is the one the default layer runs, so it
	// isolates exactly what precomputation buys. Only available when
	// the simulator is built from terms (New), not from a raw diagonal.
	RecomputePhase bool
}

// Simulator is a QAOA fast simulator bound to one problem instance
// (one precomputed cost diagonal). After construction it is read-only,
// so one Simulator may serve many goroutines at once as long as each
// evolves its own Result (NewResult + SimulateQAOAInto) — the sharing
// pattern the internal/sweep batch engine is built on. The precomputed
// diagonal is shared by every evaluation, never copied.
type Simulator struct {
	n       int
	opts    Options
	backend Backend
	pool    *statevec.Pool

	diag  []float64
	quant *costvec.Quantized
	// grid describes the phase-factor table the kernels may read
	// instead of evaluating sincos: the quantized codes, or a float64
	// diagonal found at build time to lie exactly on a power-of-two
	// grid. Levels == 0 means sincos. Per-γ tables live in each
	// Result, never here.
	grid statevec.PhaseGrid
	// compiled is retained for the RecomputePhase ablation.
	compiled poly.Compiled

	// mixerPairs is the ordered edge list swept by the xy mixers.
	mixerPairs []graphs.Edge

	minCost      float64
	groundStates []uint64
	// costCache holds the lazily-built ascending-cost basis order for
	// CVaR; it is a pointer so kernel-pool views share one cache and
	// the once-guarded build stays safe under concurrent Results.
	costCache *costOrderCache

	// initial is the initial state, or nil for the uniform superposition
	// |+⟩^n, which resetResult fills directly instead of copying.
	initial statevec.Vec
}

// maxGridLevels caps the phase table for a float64 diagonal: at most
// MaxPhaseLevels entries and never more than the 2^n sincos
// evaluations one phase pass would otherwise cost.
func maxGridLevels(n int) int { return min(statevec.MaxPhaseLevels, 1<<uint(n)) }

// New builds a simulator for an n-qubit problem given as polynomial
// terms (Eq. 1), precomputing the 2^n cost diagonal with the engine
// selected by opts (the paper's Fig. 1 "precompute diagonal" stage).
func New(n int, terms poly.Terms, opts Options) (*Simulator, error) {
	if err := terms.Validate(n); err != nil {
		return nil, err
	}
	if n < 1 || n > 34 {
		return nil, fmt.Errorf("core: n=%d outside practical range [1,34]", n)
	}
	compiled := poly.Compile(terms)
	pool := statevec.NewPool(opts.Workers)
	var diag []float64
	if opts.Backend == BackendSerial {
		diag = costvec.Precompute(compiled, n)
	} else {
		diag = costvec.PrecomputePool(pool, compiled, n)
	}
	s, err := NewFromDiagonal(n, diag, opts)
	if err != nil {
		return nil, err
	}
	s.compiled = compiled
	return s, nil
}

// NewFromDiagonal builds a simulator from an existing cost diagonal
// (QOKit's `costs` constructor argument). The diagonal is retained,
// not copied; callers must not mutate it afterwards.
func NewFromDiagonal(n int, diag []float64, opts Options) (*Simulator, error) {
	return newFromDiagonal(n, diag, nil, opts)
}

// NewFromDiagonalQuantized is NewFromDiagonal for callers that already
// hold the diagonal's uint16-quantized form (e.g. from a problem
// registry): the simulator runs quantized without re-paying the
// O(2^n) quantization pass. Quantize is implied; QuantScale is
// ignored. The quantized form is retained, not copied.
func NewFromDiagonalQuantized(n int, diag []float64, q *costvec.Quantized, opts Options) (*Simulator, error) {
	if q == nil {
		return nil, fmt.Errorf("core: NewFromDiagonalQuantized requires a non-nil quantized diagonal")
	}
	if len(q.Codes) != len(diag) {
		return nil, fmt.Errorf("core: quantized form has %d codes for a %d-entry diagonal", len(q.Codes), len(diag))
	}
	opts.Quantize = true
	opts.QuantScale = 0
	return newFromDiagonal(n, diag, q, opts)
}

func newFromDiagonal(n int, diag []float64, prequant *costvec.Quantized, opts Options) (*Simulator, error) {
	if n < 1 || n > 34 {
		return nil, fmt.Errorf("core: n=%d outside practical range [1,34]", n)
	}
	if len(diag) != 1<<uint(n) {
		return nil, fmt.Errorf("core: diagonal length %d, want 2^%d = %d", len(diag), n, 1<<uint(n))
	}
	backend := opts.Backend
	if backend == BackendAuto {
		backend = BackendSoA
	}
	workers := opts.Workers
	if backend == BackendSerial {
		// The serial backend never consults the pool; normalize the
		// worker count to 1 so Options cannot silently claim parallelism
		// the engine does not deliver.
		workers = 1
	}
	s := &Simulator{
		n:         n,
		opts:      opts,
		backend:   backend,
		pool:      statevec.NewPool(workers),
		diag:      diag,
		costCache: &costOrderCache{},
	}
	if opts.RecomputePhase && opts.Quantize {
		return nil, fmt.Errorf("core: RecomputePhase and Quantize are mutually exclusive")
	}
	if opts.SinglePrecision && backend != BackendSoA {
		return nil, fmt.Errorf("core: SinglePrecision requires the SoA backend, got %v", backend)
	}
	if opts.SinglePrecision && (opts.Quantize || opts.RecomputePhase) {
		return nil, fmt.Errorf("core: SinglePrecision does not compose with Quantize or RecomputePhase")
	}
	if opts.Quantize {
		if prequant != nil {
			s.quant = prequant
		} else {
			var q *costvec.Quantized
			var err error
			if opts.QuantScale > 0 {
				q, err = costvec.Quantize(diag, opts.QuantScale)
			} else {
				q, err = costvec.QuantizeAuto(diag)
			}
			if err != nil {
				return nil, fmt.Errorf("core: quantized diagonal requested: %w", err)
			}
			s.quant = q
		}
		s.grid = statevec.PhaseGrid{
			Min: s.quant.Min, Scale: s.quant.Scale,
			Levels: int(s.quant.MaxCode()) + 1, Codes: s.quant.Codes,
		}
	} else {
		s.grid = statevec.DiagGrid(diag, costvec.AutoScales, maxGridLevels(n))
	}
	switch opts.Mixer {
	case MixerX:
	case MixerXYRing:
		s.mixerPairs = ringSweep(n)
	case MixerXYComplete:
		s.mixerPairs = completeSweep(n)
	default:
		return nil, fmt.Errorf("core: unknown mixer %v", opts.Mixer)
	}
	if err := s.setupInitialState(); err != nil {
		return nil, err
	}
	s.computeGroundStates()
	return s, nil
}

// setupInitialState resolves the initial state: a caller-provided
// vector, |+⟩^n for the x mixer (left nil: it is filled on reset, not
// stored), or a Dicke state for xy mixers.
func (s *Simulator) setupInitialState() error {
	if s.opts.InitialState != nil {
		if len(s.opts.InitialState) != 1<<uint(s.n) {
			return fmt.Errorf("core: initial state length %d, want %d", len(s.opts.InitialState), 1<<uint(s.n))
		}
		s.initial = s.opts.InitialState.Clone()
		return nil
	}
	if s.opts.Mixer == MixerX {
		return nil
	}
	k := s.opts.HammingWeight
	if k <= 0 {
		k = s.n / 2
	}
	if k > s.n {
		return fmt.Errorf("core: Hamming weight %d exceeds n=%d", k, s.n)
	}
	s.initial = statevec.NewDicke(s.n, k)
	return nil
}

// computeGroundStates records the minimal cost and its argmin set. For
// xy mixers the search is restricted to the feasible (fixed Hamming
// weight) subspace, since the dynamics never leaves it.
func (s *Simulator) computeGroundStates() {
	const tol = 1e-9
	restrict := s.opts.Mixer != MixerX && s.opts.InitialState == nil
	k := s.opts.HammingWeight
	if k <= 0 {
		k = s.n / 2
	}
	first := true
	for x, v := range s.diag {
		if restrict && bits.OnesCount(uint(x)) != k {
			continue
		}
		if first || v < s.minCost {
			s.minCost, first = v, false
		}
	}
	for x, v := range s.diag {
		if restrict && bits.OnesCount(uint(x)) != k {
			continue
		}
		if v <= s.minCost+tol {
			s.groundStates = append(s.groundStates, uint64(x))
		}
	}
}

// KernelPoolView returns a simulator sharing every precomputed
// structure with s — diagonal, quantization, compiled terms, mixer
// sweep, ground states, initial state, CVaR cache — but running its
// kernels on its own pool of the given size (≤ 0 means GOMAXPROCS).
// The sweep engine uses single-worker views so that batch-level
// parallelism does not nest a second layer of kernel goroutines on
// the same cores. Evolution kernels are elementwise and bit-identical
// across pool sizes; reductions (Expectation) sum chunk partials, so
// they may differ from a differently-sized pool in the last ULPs.
func (s *Simulator) KernelPoolView(workers int) *Simulator {
	// Whole-struct copy so future Simulator fields are never silently
	// zero in views; every reference field (diag, quant, costCache, …)
	// is shared, which is exactly the semantics a view wants.
	v := *s
	v.pool = statevec.NewPool(workers)
	return &v
}

// NumQubits returns n.
func (s *Simulator) NumQubits() int { return s.n }

// Backend returns the resolved execution backend.
func (s *Simulator) Backend() Backend { return s.backend }

// Workers returns the resolved kernel-pool size: Options.Workers
// (GOMAXPROCS when ≤ 0) for the pooled backends, always 1 for the
// Serial backend.
func (s *Simulator) Workers() int { return s.pool.Workers }

// CostDiagonal returns the precomputed cost vector (shared storage —
// do not mutate). This is QOKit's get_cost_diagonal.
func (s *Simulator) CostDiagonal() []float64 { return s.diag }

// MinCost returns the smallest cost over the (feasible) search space.
func (s *Simulator) MinCost() float64 { return s.minCost }

// GroundStates returns the argmin set used by Overlap.
func (s *Simulator) GroundStates() []uint64 { return s.groundStates }

// InitialState returns a copy of the initial state.
func (s *Simulator) InitialState() statevec.Vec {
	if s.initial == nil {
		return statevec.NewUniform(s.n)
	}
	return s.initial.Clone()
}

// ringSweep orders the ring edges even-first then odd (one Trotter
// step of the xy-ring mixer; each pass contains disjoint pairs).
func ringSweep(n int) []graphs.Edge {
	if n < 2 {
		return nil
	}
	if n == 2 {
		return []graphs.Edge{{U: 0, V: 1}}
	}
	var out []graphs.Edge
	for i := 0; i < n-1; i += 2 {
		out = append(out, graphs.Edge{U: i, V: i + 1})
	}
	for i := 1; i < n-1; i += 2 {
		out = append(out, graphs.Edge{U: i, V: i + 1})
	}
	// The wrap-around edge closes the ring; for even n it belongs to
	// the odd pass, for odd n it shares vertices with both passes and
	// forms its own third pass.
	out = append(out, graphs.Edge{U: 0, V: n - 1})
	return out
}

// MixerSweepEdges returns the ordered edge list one Trotter step of
// mixer m sweeps over n qubits (nil for MixerX, which has no edges).
// The xy factors on edges sharing a qubit do not commute, so any
// engine claiming bit-compatibility with this package — in particular
// the distributed simulator — must apply them in exactly this order.
func MixerSweepEdges(n int, m Mixer) ([]graphs.Edge, error) {
	switch m {
	case MixerX:
		return nil, nil
	case MixerXYRing:
		return ringSweep(n), nil
	case MixerXYComplete:
		return completeSweep(n), nil
	default:
		return nil, fmt.Errorf("core: unknown mixer %v", m)
	}
}

// completeSweep orders all pairs lexicographically (one Trotter step
// of the xy-complete mixer).
func completeSweep(n int) []graphs.Edge {
	var out []graphs.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, graphs.Edge{U: i, V: j})
		}
	}
	return out
}
