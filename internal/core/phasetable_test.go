package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

// phaseTableBackends are the four state representations: serial and
// pooled complex128, SoA float64, and SoA float32.
var phaseTableBackends = []struct {
	name string
	opts Options
}{
	{"serial", Options{Backend: BackendSerial}},
	{"parallel", Options{Backend: BackendParallel, Workers: 3}},
	{"soa", Options{Backend: BackendSoA, Workers: 3}},
	{"soa32", Options{Backend: BackendSoA, Workers: 3, SinglePrecision: true}},
}

// gridInstances are integer- and half-integer-cost problems whose
// diagonals lie on a power-of-two grid.
func gridInstances(t *testing.T, n int) map[string]poly.Terms {
	t.Helper()
	g, err := graphs.RandomRegular(n, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	halfStep := make([]graphs.WeightedEdge, len(g.Edges))
	for i, e := range g.Edges {
		halfStep[i] = graphs.WeightedEdge{U: e.U, V: e.V, Weight: 0.5 * float64(1+rng.Intn(4))}
	}
	return map[string]poly.Terms{
		"labs":           problems.LABSTerms(n),
		"maxcut":         problems.MaxCutTerms(g),
		"weightedMaxcut": problems.WeightedMaxCutTerms(halfStep),
	}
}

// sincosTwin returns a copy of s with the phase grid removed, so every
// phase runs on per-amplitude sincos.
func sincosTwin(s *Simulator) *Simulator {
	v := *s
	v.grid = statevec.PhaseGrid{}
	return &v
}

// stateBits returns the bit patterns of a Result's amplitudes.
func stateBits(r *Result) []uint64 {
	var out []uint64
	switch {
	case r.soa32 != nil:
		for i := range r.soa32.Re {
			out = append(out, uint64(math.Float32bits(r.soa32.Re[i])), uint64(math.Float32bits(r.soa32.Im[i])))
		}
	case r.soa != nil:
		for i := range r.soa.Re {
			out = append(out, math.Float64bits(r.soa.Re[i]), math.Float64bits(r.soa.Im[i]))
		}
	default:
		for _, a := range r.vec {
			out = append(out, math.Float64bits(real(a)), math.Float64bits(imag(a)))
		}
	}
	return out
}

func assertSameBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := stateBits(got), stateBits(want)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: amplitude word %d differs: %#x vs %#x", label, i, g[i], w[i])
		}
	}
}

// TestPhaseTableBitIdenticalToSincos checks that the table-driven phase
// reproduces per-amplitude sincos bit for bit on all four
// representations, for LABS, MaxCut and ½-step weighted MaxCut, through
// the fused layer and the adjoint gradient.
func TestPhaseTableBitIdenticalToSincos(t *testing.T) {
	const n, p = 10, 3
	rng := rand.New(rand.NewSource(12))
	gamma, beta := make([]float64, p), make([]float64, p)
	for l := range gamma {
		gamma[l], beta[l] = rng.Float64()*2-1, rng.Float64()*2-1
	}
	for name, terms := range gridInstances(t, n) {
		for _, b := range phaseTableBackends {
			opts := b.opts
			label := name + "/" + b.name
			s, err := New(n, terms, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s.grid.Levels == 0 {
				t.Fatalf("%s: diagonal not recognized as a grid", label)
			}
			ref := sincosTwin(s)
			got, err := s.SimulateQAOA(gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.SimulateQAOA(gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, label, got, want)

			gG, gB := make([]float64, p), make([]float64, p)
			wG, wB := make([]float64, p), make([]float64, p)
			wg, wr := s.NewGradBuffers(), ref.NewGradBuffers()
			e1, err := s.SimulateQAOAGradInto(wg, gamma, beta, gG, gB)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := ref.SimulateQAOAGradInto(wr, gamma, beta, wG, wB)
			if err != nil {
				t.Fatal(err)
			}
			if e1 != e2 {
				t.Errorf("%s: energy %v vs %v", label, e1, e2)
			}
			for l := range gG {
				if gG[l] != wG[l] || gB[l] != wB[l] {
					t.Errorf("%s: layer %d gradient (%v, %v) vs sincos (%v, %v)", label, l, gG[l], gB[l], wG[l], wB[l])
				}
			}
			assertSameBits(t, label+"/reverse ψ", wg.psi, wr.psi)
			assertSameBits(t, label+"/reverse λ", wg.lam, wr.lam)
		}
	}
}

// TestPhaseTableFallsBackToSincos checks the cases the table must not
// take: Gaussian SK couplings (no grid), integer costs whose range is
// too wide for a table at this n, and the quantized diagonal, which
// always indexes its own codes.
func TestPhaseTableFallsBackToSincos(t *testing.T) {
	const n = 8
	sk, err := New(n, skTerms(n, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sk.grid.Levels != 0 {
		t.Errorf("Gaussian SK diagonal took a %d-level table", sk.grid.Levels)
	}

	// Integer costs spanning more levels than 2^n amplitudes: a table
	// would cost more sincos calls than it saves.
	wide := make([]float64, 1<<n)
	for i := range wide {
		wide[i] = float64(i * 3)
	}
	s, err := NewFromDiagonal(n, wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.grid.Levels != 0 {
		t.Errorf("range of %d levels at n=%d took a table", 3*len(wide), n)
	}
	// The same span on a coarser grid fits.
	for i := range wide {
		wide[i] = float64(i)
	}
	if s, err = NewFromDiagonal(n, wide, Options{}); err != nil {
		t.Fatal(err)
	}
	if s.grid.Levels != 1<<n || s.grid.Scale != 1 {
		t.Errorf("0..2^n−1 diagonal: grid %+v, want %d levels at scale 1", s.grid, 1<<n)
	}

	// One value off the grid by a rounding step disqualifies it.
	wide[7] = math.Nextafter(7, 8)
	if s, err = NewFromDiagonal(n, wide, Options{}); err != nil {
		t.Fatal(err)
	}
	if s.grid.Levels != 0 {
		t.Error("off-grid value accepted")
	}

	q, err := New(n, problems.LABSTerms(n), Options{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if q.grid.Codes == nil || q.grid.Levels != int(q.quant.MaxCode())+1 {
		t.Errorf("quantized simulator grid %+v does not index its codes", q.grid)
	}
}

// TestPhaseTablePoisonedDiagonalGivesNaN runs grid simulators over a
// diagonal overwritten with NaN after construction, the way a problem
// registry poisons a reclaimed diagonal. The table kernels must fall
// back to sincos for off-grid values, so every path reports a NaN
// energy and gradient instead of indexing the table out of range.
func TestPhaseTablePoisonedDiagonalGivesNaN(t *testing.T) {
	const n, p = 8, 2
	gamma, beta := []float64{0.3, -0.2}, []float64{0.5, 0.1}
	x := append(append([]float64{}, gamma...), beta...)
	for name, terms := range gridInstances(t, n) {
		diag, err := New(n, terms, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range phaseTableBackends {
			opts := b.opts
			label := name + "/" + b.name
			poisoned := append([]float64(nil), diag.CostDiagonal()...)
			s, err := NewFromDiagonal(n, poisoned, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s.grid.Levels == 0 {
				t.Fatalf("%s: diagonal not recognized as a grid", label)
			}
			for i := range poisoned {
				poisoned[i] = math.NaN()
			}
			e, err := s.Energy(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			grad := make([]float64, 2*p)
			eg, err := s.EnergyGrad(context.Background(), x, grad)
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsNaN(e) || !math.IsNaN(eg) {
				t.Errorf("%s: energies %v, %v over a NaN diagonal, want NaN", label, e, eg)
			}
			for l, g := range grad {
				if !math.IsNaN(g) {
					t.Errorf("%s: gradient[%d] = %v over a NaN diagonal, want NaN", label, l, g)
				}
			}
		}
	}
}

// TestAdjointPairedReverseBitIdentical replays the reverse pass as the
// separate-kernel sequence it replaces — ImDotXAll, a mixer undo per
// state, ImDotDiag, a phase undo per state — and checks that the paired
// kernels leave ψ and λ bit-identical on all four representations under
// default options.
func TestAdjointPairedReverseBitIdentical(t *testing.T) {
	const n, p = 8, 4
	rng := rand.New(rand.NewSource(17))
	gamma, beta := make([]float64, p), make([]float64, p)
	for l := range gamma {
		gamma[l], beta[l] = rng.Float64()*2-1, rng.Float64()*2-1
	}
	for name, terms := range map[string]poly.Terms{"labs": problems.LABSTerms(n), "sk": skTerms(n, 9)} {
		for _, b := range phaseTableBackends {
			label := name + "/" + b.name
			s, err := New(n, terms, b.opts)
			if err != nil {
				t.Fatal(err)
			}
			w := s.NewGradBuffers()
			gG, gB := make([]float64, p), make([]float64, p)
			if _, err := s.SimulateQAOAGradInto(w, gamma, beta, gG, gB); err != nil {
				t.Fatal(err)
			}

			psi, lam := s.NewResult(), s.NewResult()
			if err := s.SimulateQAOAInto(psi, gamma, beta); err != nil {
				t.Fatal(err)
			}
			if err := s.bindResult(lam); err != nil {
				t.Fatal(err)
			}
			s.copyState(lam, psi)
			s.mulVec(lam, s.diag)
			pool := s.pool
			for l := p - 1; l >= 0; l-- {
				switch {
				case psi.soa32 != nil:
					lam.soa32.ImDotXAll(pool, psi.soa32)
					for q := 0; q < n; q++ {
						psi.soa32.ApplyRX(pool, q, -beta[l])
						lam.soa32.ApplyRX(pool, q, -beta[l])
					}
				case psi.soa != nil:
					lam.soa.ImDotXAll(pool, psi.soa)
					psi.soa.ApplyUniformRX(pool, -beta[l])
					lam.soa.ApplyUniformRX(pool, -beta[l])
				default:
					statevec.ImDotXAll(lam.vec, psi.vec)
					statevec.ApplyUniformRX(psi.vec, -beta[l])
					statevec.ApplyUniformRX(lam.vec, -beta[l])
				}
				switch {
				case l == 0:
					// The last layer's phase is never undone.
				case psi.soa32 != nil:
					psi.soa32.PhaseDiag(pool, s.diag, -gamma[l])
					lam.soa32.PhaseDiag(pool, s.diag, -gamma[l])
				case psi.soa != nil:
					psi.soa.PhaseDiag(pool, s.diag, -gamma[l])
					lam.soa.PhaseDiag(pool, s.diag, -gamma[l])
				default:
					statevec.PhaseDiag(psi.vec, s.diag, -gamma[l])
					statevec.PhaseDiag(lam.vec, s.diag, -gamma[l])
				}
			}
			assertSameBits(t, label+"/ψ", w.psi, psi)
			assertSameBits(t, label+"/λ", w.lam, lam)
		}
	}
}

// TestAdjointGradMatchesSerialBackend is the cross-backend gradient
// differential: every float64 backend, with and without the phase
// table (SK has none; Quantize indexes codes), agrees with
// BackendSerial to rtol 1e-10 for n ∈ {4, 8, 12} and p ∈ {1, 4, 12}.
func TestAdjointGradMatchesSerialBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	depths := []int{1, 4, 12}
	if testing.Short() {
		depths = []int{1, 4}
	}
	for _, n := range []int{4, 8, 12} {
		instances := testInstances(t, max(n, 4))
		for name, terms := range instances {
			ref, err := New(n, terms, Options{Backend: BackendSerial})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range depths {
				gamma, beta := make([]float64, p), make([]float64, p)
				for l := range gamma {
					gamma[l], beta[l] = rng.Float64()*2-1, rng.Float64()*2-1
				}
				e0, refG, refB, err := ref.SimulateQAOAGrad(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				for _, opts := range []Options{
					{Backend: BackendParallel, Workers: 3},
					{Backend: BackendSoA, Workers: 3},
					{Backend: BackendSoA, Workers: 2, Quantize: true},
				} {
					s, err := New(n, terms, opts)
					if err != nil {
						if opts.Quantize {
							continue // SK costs are not quantizable
						}
						t.Fatal(err)
					}
					e, gG, gB, err := s.SimulateQAOAGrad(gamma, beta)
					if err != nil {
						t.Fatal(err)
					}
					label := name + "/" + opts.Backend.String()
					if math.Abs(e-e0) > 1e-10*math.Max(1, math.Abs(e0)) {
						t.Errorf("n=%d p=%d %s: energy %v vs serial %v", n, p, label, e, e0)
					}
					assertGradClose(t, label, gG, gB, refG, refB, 1e-10)
				}
			}
		}
	}
}

// TestUniformResetBitIdentical checks that resetting to |+⟩^n without a
// stored initial vector writes exactly the amplitudes a copy of
// statevec.NewUniform would, on every representation, and that
// InitialState still returns a fresh uniform copy.
func TestUniformResetBitIdentical(t *testing.T) {
	for _, n := range []int{1, 5, 10} {
		want := statevec.NewUniform(n)
		for _, b := range phaseTableBackends {
			s, err := NewFromDiagonal(n, make([]float64, 1<<n), b.opts)
			if err != nil {
				t.Fatal(err)
			}
			if s.initial != nil {
				t.Fatalf("n=%d %s: uniform initial state materialized", n, b.name)
			}
			got, ref := s.NewResult(), s.NewResult()
			if err := s.resetResult(got); err != nil {
				t.Fatal(err)
			}
			switch {
			case ref.soa32 != nil:
				ref.soa32.SetFromVec(want)
			case ref.soa != nil:
				ref.soa.SetFromVec(want)
			default:
				copy(ref.vec, want)
			}
			assertSameBits(t, b.name, got, ref)

			init := s.InitialState()
			for i := range init {
				if init[i] != want[i] {
					t.Fatalf("n=%d %s: InitialState()[%d] = %v, want %v", n, b.name, i, init[i], want[i])
				}
			}
			init[0] = 7
			if again := s.InitialState(); again[0] != want[0] {
				t.Fatalf("n=%d %s: InitialState returned shared storage", n, b.name)
			}
		}
	}
}

// TestQuantizedSoAAllocsPinned pins the quantized phase path to the
// float64 path's allocation count: SimulateQAOAInto and
// SimulateQAOAGradInto on the quantized SoA backend allocate exactly
// what the same evaluation on the float64 diagonal does (the per-call
// kernel-launch closures), with no per-layer table or 2^n factor
// arrays.
func TestQuantizedSoAAllocsPinned(t *testing.T) {
	const n, p = 10, 4
	gamma := []float64{0.1, -0.4, 0.7, 0.2}
	beta := []float64{0.5, 0.3, -0.6, 0.9}
	gG, gB := make([]float64, p), make([]float64, p)
	allocs := func(quantize bool) (fwd, grad float64) {
		s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA, Workers: 1, Quantize: quantize})
		if err != nil {
			t.Fatal(err)
		}
		r, w := s.NewResult(), s.NewGradBuffers()
		if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SimulateQAOAGradInto(w, gamma, beta, gG, gB); err != nil {
			t.Fatal(err)
		}
		fwd = testing.AllocsPerRun(5, func() {
			if err := s.SimulateQAOAInto(r, gamma, beta); err != nil {
				t.Fatal(err)
			}
		})
		grad = testing.AllocsPerRun(5, func() {
			if _, err := s.SimulateQAOAGradInto(w, gamma, beta, gG, gB); err != nil {
				t.Fatal(err)
			}
		})
		return fwd, grad
	}
	qf, qg := allocs(true)
	ff, fg := allocs(false)
	if qf != ff {
		t.Errorf("quantized SimulateQAOAInto allocates %.0f times, float64 path %.0f", qf, ff)
	}
	if qg != fg {
		t.Errorf("quantized SimulateQAOAGradInto allocates %.0f times, float64 path %.0f", qg, fg)
	}
}
