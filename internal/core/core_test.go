package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"qokit/internal/costvec"
	"qokit/internal/graphs"
	"qokit/internal/poly"
	"qokit/internal/problems"
	"qokit/internal/statevec"
)

func allBackends() []Backend {
	return []Backend{BackendSerial, BackendParallel, BackendSoA}
}

func randomAngles(rng *rand.Rand, p int) (gamma, beta []float64) {
	gamma = make([]float64, p)
	beta = make([]float64, p)
	for i := 0; i < p; i++ {
		gamma[i] = rng.Float64()*2 - 1
		beta[i] = rng.Float64()*2 - 1
	}
	return gamma, beta
}

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]Backend{
		"": BackendAuto, "auto": BackendAuto,
		"serial": BackendSerial, "python": BackendSerial,
		"parallel": BackendParallel, "c": BackendParallel,
		"soa": BackendSoA, "nbcuda": BackendSoA, "gpu": BackendSoA,
	} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseBackend("cuda"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestConstructionErrors(t *testing.T) {
	ts := poly.New(poly.NewTerm(1, 0, 1))
	if _, err := New(1, ts, Options{}); err == nil {
		t.Error("terms referencing qubit 1 accepted for n=1")
	}
	if _, err := New(0, nil, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewFromDiagonal(3, make([]float64, 7), Options{}); err == nil {
		t.Error("wrong diagonal length accepted")
	}
	if _, err := New(2, ts, Options{Mixer: Mixer(99)}); err == nil {
		t.Error("unknown mixer accepted")
	}
	if _, err := New(2, ts, Options{InitialState: statevec.New(3)}); err == nil {
		t.Error("wrong initial state length accepted")
	}
	if _, err := New(2, ts, Options{Mixer: MixerXYRing, HammingWeight: 5}); err == nil {
		t.Error("infeasible Hamming weight accepted")
	}
	if _, err := New(2, poly.New(poly.NewTerm(math.Pi, 0)), Options{Quantize: true}); err == nil {
		t.Error("non-quantizable diagonal accepted with Quantize")
	}
}

func TestSimulateQAOAValidation(t *testing.T) {
	s, err := New(3, problems.LABSTerms(3), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimulateQAOA([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched parameter lengths accepted")
	}
	r, err := s.SimulateQAOA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(r.StateVector(), statevec.NewUniform(3)); d > 1e-12 {
		t.Errorf("p=0 state differs from initial: %g", d)
	}
}

func TestBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := graphs.RandomRegular(8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, mixer := range []Mixer{MixerX, MixerXYRing, MixerXYComplete} {
		gamma, beta := randomAngles(rng, 3)
		var ref statevec.Vec
		var refE, refOv float64
		for _, backend := range allBackends() {
			s, err := New(8, problems.MaxCutTerms(g), Options{Backend: backend, Mixer: mixer, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.SimulateQAOA(gamma, beta)
			if err != nil {
				t.Fatal(err)
			}
			sv := r.StateVector()
			if math.Abs(r.Norm()-1) > 1e-10 {
				t.Fatalf("%v/%v: norm %v", backend, mixer, r.Norm())
			}
			if ref == nil {
				ref, refE, refOv = sv, r.Expectation(), r.Overlap()
				continue
			}
			if d := statevec.MaxAbsDiff(sv, ref); d > 1e-10 {
				t.Errorf("%v/%v state differs from serial: %g", backend, mixer, d)
			}
			if e := r.Expectation(); math.Abs(e-refE) > 1e-9 {
				t.Errorf("%v/%v expectation %v, want %v", backend, mixer, e, refE)
			}
			if o := r.Overlap(); math.Abs(o-refOv) > 1e-9 {
				t.Errorf("%v/%v overlap %v, want %v", backend, mixer, o, refOv)
			}
		}
	}
}

func TestXMixerFWHTReference(t *testing.T) {
	// Independent reference for the whole QAOA evolution: apply the
	// phase from the diagonal, then the mixer as H^⊗n · diag(e^{−iβ(n−2|x|)}) · H^⊗n.
	rng := rand.New(rand.NewSource(32))
	n, p := 7, 4
	ts := problems.LABSTerms(n)
	s, err := New(n, ts, Options{Backend: BackendSoA})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := randomAngles(rng, p)
	r, err := s.SimulateQAOA(gamma, beta)
	if err != nil {
		t.Fatal(err)
	}

	ref := statevec.NewUniform(n)
	diag := s.CostDiagonal()
	xdiag := make([]float64, len(ref))
	for x := range xdiag {
		xdiag[x] = float64(n - 2*bits.OnesCount(uint(x)))
	}
	for l := 0; l < p; l++ {
		statevec.PhaseDiag(ref, diag, gamma[l])
		statevec.FWHT(ref)
		statevec.PhaseDiag(ref, xdiag, beta[l])
		statevec.FWHT(ref)
	}
	if d := statevec.MaxAbsDiff(r.StateVector(), ref); d > 1e-9 {
		t.Errorf("SoA QAOA vs FWHT reference: %g", d)
	}
}

func TestSingleQubitAnalytic(t *testing.T) {
	// n=1, C = w·s0, p=1: state = e^{−iβX} diag(e^{−iγw}, e^{iγw}) |+⟩.
	w, gammaA, betaA := 0.8, 0.9, 0.4
	s, err := New(1, poly.New(poly.NewTerm(w, 0)), Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA([]float64{gammaA}, []float64{betaA})
	if err != nil {
		t.Fatal(err)
	}
	amp0 := cmplx.Exp(complex(0, -gammaA*w)) / complex(math.Sqrt2, 0)
	amp1 := cmplx.Exp(complex(0, gammaA*w)) / complex(math.Sqrt2, 0)
	c, sn := complex(math.Cos(betaA), 0), complex(0, -math.Sin(betaA))
	want0 := c*amp0 + sn*amp1
	want1 := sn*amp0 + c*amp1
	sv := r.StateVector()
	if cmplx.Abs(sv[0]-want0)+cmplx.Abs(sv[1]-want1) > 1e-12 {
		t.Errorf("analytic mismatch: got %v, want (%v, %v)", sv, want0, want1)
	}
	wantE := w*(real(want0)*real(want0)+imag(want0)*imag(want0)) - w*(real(want1)*real(want1)+imag(want1)*imag(want1))
	if e := r.Expectation(); math.Abs(e-wantE) > 1e-12 {
		t.Errorf("expectation %v, want %v", e, wantE)
	}
}

func TestQuantizedPathMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 8
	ts := problems.LABSTerms(n)
	gamma, beta := randomAngles(rng, 3)
	for _, backend := range allBackends() {
		plain, err := New(n, ts, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		quant, err := New(n, ts, Options{Backend: backend, Quantize: true})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := plain.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := quant.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(r1.StateVector(), r2.StateVector()); d > 1e-10 {
			t.Errorf("%v: quantized state differs: %g", backend, d)
		}
		if a, b := r1.Expectation(), r2.Expectation(); math.Abs(a-b) > 1e-9 {
			t.Errorf("%v: quantized expectation %v vs %v", backend, b, a)
		}
	}
}

func TestXYMixersPreserveDickeSector(t *testing.T) {
	n, k := 6, 3
	for _, mixer := range []Mixer{MixerXYRing, MixerXYComplete} {
		s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSoA, Mixer: mixer, HammingWeight: k})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SimulateQAOA([]float64{0.7, 0.3}, []float64{0.5, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		sv := r.StateVector()
		var inSector float64
		for x, a := range sv {
			p := real(a)*real(a) + imag(a)*imag(a)
			if bits.OnesCount(uint(x)) == k {
				inSector += p
			} else if p > 1e-20 {
				t.Fatalf("%v: probability leak %g at weight-%d state %b", mixer, p, bits.OnesCount(uint(x)), x)
			}
		}
		if math.Abs(inSector-1) > 1e-10 {
			t.Errorf("%v: sector probability %v", mixer, inSector)
		}
	}
}

func TestGroundStatesRestrictedForXY(t *testing.T) {
	// With the xy mixer the overlap target is the best weight-k state.
	diag := []float64{ // n=2: states 00,01,10,11
		-5, // 00 (weight 0) — global min, infeasible for k=1
		1,  // 01
		-2, // 10 — feasible min
		0,  // 11
	}
	s, err := NewFromDiagonal(2, diag, Options{Mixer: MixerXYRing, HammingWeight: 1, Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if s.MinCost() != -2 {
		t.Errorf("MinCost = %v, want −2 (feasible min)", s.MinCost())
	}
	gs := s.GroundStates()
	if len(gs) != 1 || gs[0] != 2 {
		t.Errorf("GroundStates = %v, want [2]", gs)
	}
	// For MixerX the unrestricted min applies.
	sx, err := NewFromDiagonal(2, diag, Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if sx.MinCost() != -5 {
		t.Errorf("x-mixer MinCost = %v, want −5", sx.MinCost())
	}
}

func TestApplyLayerIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n, p := 6, 5
	ts := problems.LABSTerms(n)
	gamma, beta := randomAngles(rng, p)
	for _, backend := range allBackends() {
		s, err := New(n, ts, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := s.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := s.SimulateQAOA(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < p; l++ {
			s.ApplyLayer(inc, gamma[l], beta[l])
		}
		if d := statevec.MaxAbsDiff(whole.StateVector(), inc.StateVector()); d > 1e-11 {
			t.Errorf("%v: incremental layers differ: %g", backend, d)
		}
	}
}

func TestCustomInitialState(t *testing.T) {
	n := 4
	init := statevec.NewBasis(n, 7)
	s, err := New(n, problems.LABSTerms(n), Options{Backend: BackendSerial, InitialState: init})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(r.StateVector(), init); d > 1e-15 {
		t.Errorf("initial state not honored: %g", d)
	}
	// The stored copy must be independent of the caller's slice.
	init[7] = 0
	init[0] = 1
	r2, _ := s.SimulateQAOA(nil, nil)
	if cmplx.Abs(r2.StateVector()[7]-1) > 1e-15 {
		t.Error("simulator aliased the caller's initial state")
	}
}

func TestProbabilitiesAndPreserveState(t *testing.T) {
	n := 5
	ts := problems.LABSTerms(n)
	s, err := New(n, ts, Options{Backend: BackendSoA})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA([]float64{0.4}, []float64{0.7})
	if err != nil {
		t.Fatal(err)
	}
	want := r.StateVector().Probabilities(nil)
	got := r.Probabilities(nil, true)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("probabilities differ at %d", i)
		}
	}
	var sum float64
	for _, p := range got {
		sum += p
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Errorf("probabilities sum to %v", sum)
	}
	// Destructive path returns the same values.
	got2 := r.Probabilities(nil, false)
	for i := range want {
		if math.Abs(got2[i]-want[i]) > 1e-12 {
			t.Fatalf("destructive probabilities differ at %d", i)
		}
	}
}

func TestExpectationMatchesManualSum(t *testing.T) {
	n := 6
	g, err := graphs.RandomRegular(n, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	ts := problems.MaxCutTerms(g)
	s, err := New(n, ts, Options{Backend: BackendParallel, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SimulateQAOA([]float64{0.3, 0.8}, []float64{0.6, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	probs := r.Probabilities(nil, true)
	var want float64
	for x, p := range probs {
		want += p * -float64(g.CutValue(uint64(x)))
	}
	if got := r.Expectation(); math.Abs(got-want) > 1e-9 {
		t.Errorf("expectation %v, want %v", got, want)
	}
	// And the custom-diagonal variant.
	if got := r.ExpectationOf(s.CostDiagonal()); math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectationOf %v, want %v", got, want)
	}
}

func TestExpectationNeverBelowMin(t *testing.T) {
	n := 6
	ts := problems.LABSTerms(n)
	s, err := New(n, ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		gamma, beta := randomAngles(rng, 3)
		r, err := s.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		if e := r.Expectation(); e < s.MinCost()-1e-9 {
			t.Fatalf("expectation %v below ground energy %v", e, s.MinCost())
		}
	}
}

func TestSinglePrecisionTracksDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	n := 8
	for _, mixer := range []Mixer{MixerX, MixerXYRing} {
		ts := problems.LABSTerms(n)
		double, err := New(n, ts, Options{Backend: BackendSoA, Mixer: mixer})
		if err != nil {
			t.Fatal(err)
		}
		single, err := New(n, ts, Options{Backend: BackendSoA, Mixer: mixer, SinglePrecision: true})
		if err != nil {
			t.Fatal(err)
		}
		gamma, beta := randomAngles(rng, 4)
		r64, err := double.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		r32, err := single.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(r64.StateVector(), r32.StateVector()); d > 1e-4 {
			t.Errorf("mixer=%v: float32 state deviates by %g", mixer, d)
		}
		if math.Abs(r32.Norm()-1) > 1e-5 {
			t.Errorf("mixer=%v: float32 norm drift %g", mixer, r32.Norm()-1)
		}
		if math.Abs(r64.Expectation()-r32.Expectation()) > 1e-3 {
			t.Errorf("mixer=%v: expectation gap %g", mixer, r64.Expectation()-r32.Expectation())
		}
		if math.Abs(r64.Overlap()-r32.Overlap()) > 1e-4 {
			t.Errorf("mixer=%v: overlap gap %g", mixer, r64.Overlap()-r32.Overlap())
		}
		p64 := r64.Probabilities(nil, true)
		p32 := r32.Probabilities(nil, true)
		for i := range p64 {
			if math.Abs(p64[i]-p32[i]) > 1e-5 {
				t.Fatalf("mixer=%v: probability %d gap %g", mixer, i, p64[i]-p32[i])
			}
		}
	}
}

func TestSinglePrecisionValidation(t *testing.T) {
	ts := problems.LABSTerms(4)
	if _, err := New(4, ts, Options{Backend: BackendSerial, SinglePrecision: true}); err == nil {
		t.Error("SinglePrecision with serial backend accepted")
	}
	if _, err := New(4, ts, Options{SinglePrecision: true, Quantize: true}); err == nil {
		t.Error("SinglePrecision+Quantize accepted")
	}
	if _, err := New(4, ts, Options{SinglePrecision: true, RecomputePhase: true}); err == nil {
		t.Error("SinglePrecision+RecomputePhase accepted")
	}
	// Auto backend resolves to SoA, so it must be accepted.
	if _, err := New(4, ts, Options{SinglePrecision: true}); err != nil {
		t.Errorf("SinglePrecision with auto backend rejected: %v", err)
	}
}

// layerTerms is a random n-qubit instance with linear and pair terms
// of integer weight, so its diagonal can lie on a phase-table grid.
func layerTerms(n int, seed int64) poly.Terms {
	rng := rand.New(rand.NewSource(seed))
	w := func() float64 { return float64(1+rng.Intn(2)) * float64(1-2*rng.Intn(2)) }
	var ts poly.Terms
	for i := 0; i < n; i++ {
		ts = append(ts, poly.NewTerm(w(), i))
		for j := i + 1; j < n; j++ {
			ts = append(ts, poly.NewTerm(w(), i, j))
		}
	}
	return ts
}

// pairFusedByHand evolves |+⟩^n through the statevec F = 2 fused-layer
// kernels on the representation opts selects: ApplyPhaseRXFused per
// layer, or for RecomputePhase a phase pass over the term-evaluated
// costs followed by ApplyUniformRXFused. The phase factors come from
// sincos, which every phase table reproduces bit for bit.
func pairFusedByHand(n int, terms poly.Terms, diag []float64, opts Options, gamma, beta []float64) statevec.Vec {
	pool := statevec.NewPool(opts.Workers)
	phaseDiag := diag
	if opts.RecomputePhase {
		c := poly.Compile(terms)
		phaseDiag = make([]float64, len(diag))
		for x := range phaseDiag {
			phaseDiag[x] = c.Eval(uint64(x))
		}
	}
	v := statevec.NewUniform(n)
	soa, soa32 := statevec.SoAFromVec(v), statevec.SoA32FromVec(v)
	for l := range gamma {
		ph := statevec.Phase{Gamma: gamma[l], Diag: phaseDiag}
		switch {
		case opts.SinglePrecision:
			soa32.ApplyPhaseRXFused(pool, ph, beta[l])
		case opts.Backend == BackendSoA && opts.RecomputePhase:
			soa.ApplyPhase(pool, ph)
			soa.ApplyUniformRXFused(pool, beta[l])
		case opts.Backend == BackendSoA:
			soa.ApplyPhaseRXFused(pool, ph, beta[l])
		case opts.RecomputePhase:
			pool.ApplyPhase(v, ph)
			pool.ApplyUniformRXFused(v, beta[l])
		default:
			pool.ApplyPhaseRXFused(v, ph, beta[l])
		}
	}
	switch {
	case opts.SinglePrecision:
		return soa32.ToVec()
	case opts.Backend == BackendSoA:
		return soa.ToVec()
	}
	return v
}

// TestDefaultLayerIsPairFused pins the transverse-field layer of the
// pooled backends: with no option beyond the backend, SoA, SoA32 and
// Parallel evolve bit-identically to the statevec F = 2 fused-layer
// kernels applied by hand, through the phase table and through sincos,
// quantized and with RecomputePhase, for n ∈ {1, 2, 5, 8} (odd n runs
// the single-qubit tail, n = 1 the n < 2 fallback). The float64 cases
// also stay within rtol 1e-10 of the Serial reference's per-qubit
// Algorithm 2, and SoA32 within single-precision rounding of it.
func TestDefaultLayerIsPairFused(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	gamma, beta := randomAngles(rng, 3)
	for _, n := range []int{1, 2, 5, 8} {
		terms := layerTerms(n, int64(n))
		for _, b := range []struct {
			name string
			opts Options
		}{
			{"soa", Options{Backend: BackendSoA, Workers: 3}},
			{"soa32", Options{Backend: BackendSoA, Workers: 3, SinglePrecision: true}},
			{"parallel", Options{Backend: BackendParallel, Workers: 3}},
		} {
			for _, variant := range []struct {
				name string
				set  func(*Options)
			}{
				{"default", func(*Options) {}},
				{"quantize", func(o *Options) { o.Quantize = true }},
				{"recompute", func(o *Options) { o.RecomputePhase = true }},
			} {
				opts := b.opts
				variant.set(&opts)
				if opts.SinglePrecision && (opts.Quantize || opts.RecomputePhase) {
					continue // rejected at construction
				}
				s, err := New(n, terms, opts)
				if err != nil {
					t.Fatal(err)
				}
				if n >= 5 && s.grid.Levels == 0 {
					t.Fatalf("n=%d %s/%s: integer diagonal took no phase table", n, b.name, variant.name)
				}
				serialOpts := opts
				serialOpts.Backend, serialOpts.SinglePrecision = BackendSerial, false
				ref, err := New(n, terms, serialOpts)
				if err != nil {
					t.Fatal(err)
				}
				rRef, err := ref.SimulateQAOA(gamma, beta)
				if err != nil {
					t.Fatal(err)
				}
				want := pairFusedByHand(n, terms, s.CostDiagonal(), opts, gamma, beta)
				sims := map[string]*Simulator{"table": s}
				if s.grid.Levels > 0 && !opts.Quantize {
					sims["sincos"] = sincosTwin(s)
				}
				for phase, sim := range sims {
					label := fmt.Sprintf("n=%d %s/%s/%s", n, b.name, variant.name, phase)
					r, err := sim.SimulateQAOA(gamma, beta)
					if err != nil {
						t.Fatal(err)
					}
					got := r.StateVector()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: amplitude %d = %v, F = 2 kernels by hand give %v", label, i, got[i], want[i])
						}
					}
					tol := 1e-10
					if opts.SinglePrecision {
						tol = 1e-5
					}
					if d := statevec.MaxAbsDiff(got, rRef.StateVector()); d > tol {
						t.Errorf("%s: state deviates from the serial reference by %g", label, d)
					}
					if e, e0 := r.Expectation(), rRef.Expectation(); math.Abs(e-e0) > 10*tol*math.Max(1, math.Abs(e0)) {
						t.Errorf("%s: energy %v, serial reference %v", label, e, e0)
					}
				}
			}
		}
	}
}

func TestRecomputePhaseMatchesPrecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	n := 7
	ts := problems.LABSTerms(n)
	gamma, beta := randomAngles(rng, 3)
	for _, backend := range allBackends() {
		pre, err := New(n, ts, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := New(n, ts, Options{Backend: backend, RecomputePhase: true})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := pre.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := rec.SimulateQAOA(gamma, beta)
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(r1.StateVector(), r2.StateVector()); d > 1e-10 {
			t.Errorf("%v: recompute phase differs: %g", backend, d)
		}
	}
	if _, err := New(n, ts, Options{RecomputePhase: true, Quantize: true}); err == nil {
		t.Error("RecomputePhase+Quantize accepted")
	}
}

func TestMixerAndBackendStrings(t *testing.T) {
	if BackendSoA.String() != "soa" || MixerXYRing.String() != "xy-ring" {
		t.Error("String() labels changed")
	}
	if Backend(42).String() == "" || Mixer(42).String() == "" {
		t.Error("unknown values must render non-empty")
	}
}

func TestNewFromDiagonalSharesStorage(t *testing.T) {
	diag := costvec.Precompute(poly.Compile(problems.LABSTerms(4)), 4)
	s, err := NewFromDiagonal(4, diag, Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	if &s.CostDiagonal()[0] != &diag[0] {
		t.Error("NewFromDiagonal copied the diagonal; documented as shared")
	}
}

func TestRingSweepCoversRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 9} {
		edges := ringSweep(n)
		want := graphs.Ring(n).NumEdges()
		if len(edges) != want {
			t.Errorf("n=%d: sweep has %d edges, ring has %d", n, len(edges), want)
		}
		ring := graphs.Ring(n)
		for _, e := range edges {
			if !ring.HasEdge(e.U, e.V) {
				t.Errorf("n=%d: sweep edge (%d,%d) not in ring", n, e.U, e.V)
			}
		}
	}
}
