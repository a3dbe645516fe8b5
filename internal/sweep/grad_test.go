package sweep_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"qokit/internal/core"
	"qokit/internal/problems"
	"qokit/internal/sweep"
)

// gradTol returns the agreement tolerance between a batched and a
// pointwise gradient on one backend: bit-level for float64 backends
// up to reduction re-chunking, looser for single precision.
func gradTol(name string) float64 {
	if name == "soa32" {
		return 1e-4
	}
	return 1e-9
}

// TestSweepGradMatchesPointwise checks SweepGrad against pointwise
// SimulateQAOAGrad on every backend, serially and concurrently.
func TestSweepGradMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, p, count = 8, 5, 24
	terms := problems.LABSTerms(n)
	for _, be := range backends {
		sim, err := core.New(n, terms, be.opts)
		if err != nil {
			t.Fatal(err)
		}
		points := randomPoints(rng, count, p)
		for _, workers := range []int{1, 4} {
			eng := sweep.New(sim, sweep.Options{Workers: workers})
			res, err := eng.SweepGrad(context.Background(), points, nil)
			if err != nil {
				t.Fatal(err)
			}
			tol := gradTol(be.name)
			for i, pt := range points {
				e, gG, gB, err := sim.SimulateQAOAGrad(pt.Gamma, pt.Beta)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(res[i].Energy - e); d > tol {
					t.Errorf("%s workers=%d point %d: energy |Δ|=%g", be.name, workers, i, d)
				}
				for l := 0; l < p; l++ {
					if d := math.Abs(res[i].GradGamma[l] - gG[l]); d > tol {
						t.Errorf("%s workers=%d point %d: ∂γ_%d |Δ|=%g", be.name, workers, i, l, d)
					}
					if d := math.Abs(res[i].GradBeta[l] - gB[l]); d > tol {
						t.Errorf("%s workers=%d point %d: ∂β_%d |Δ|=%g", be.name, workers, i, l, d)
					}
				}
			}
		}
	}
}

// TestSweepGradMixedDepths checks one batch may mix depths; gradient
// slices are sized per point.
func TestSweepGradMixedDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 8
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var points []sweep.Point
	for p := 0; p <= 5; p++ {
		points = append(points, randomPoints(rng, 3, p)...)
	}
	eng := sweep.New(sim, sweep.Options{Workers: 4})
	res, err := eng.SweepGrad(context.Background(), points, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		if len(res[i].GradGamma) != len(pt.Gamma) || len(res[i].GradBeta) != len(pt.Beta) {
			t.Fatalf("point %d: gradient lengths (%d, %d), want %d",
				i, len(res[i].GradGamma), len(res[i].GradBeta), len(pt.Gamma))
		}
	}
}

// TestSweepGradValidation mirrors Sweep's input checks.
func TestSweepGradValidation(t *testing.T) {
	sim, err := core.New(4, problems.LABSTerms(4), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sim, sweep.Options{Workers: 2})
	if _, err := eng.SweepGrad(context.Background(), []sweep.Point{{Gamma: []float64{1}, Beta: nil}}, nil); err == nil {
		t.Error("mismatched point accepted")
	}
	res, err := eng.SweepGrad(context.Background(), nil, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(res))
	}
}

// TestSweepGradConcurrentEngines is the race-coverage test: many
// goroutines drive gradient sweeps and single evaluations against one
// shared Simulator at once (run under -race in CI).
func TestSweepGradConcurrentEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n, p = 8, 4
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sim, sweep.Options{Workers: 4})
	points := randomPoints(rng, 16, p)
	wantRes, err := eng.SweepGrad(context.Background(), points, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if k%2 == 0 {
				// Shared engine: exercises the workspace pool.
				res, err := eng.SweepGrad(context.Background(), points, nil)
				if err != nil {
					errs <- err
					return
				}
				for i := range res {
					if res[i].Energy != wantRes[i].Energy {
						t.Errorf("goroutine %d: point %d energy %v != %v", k, i, res[i].Energy, wantRes[i].Energy)
					}
				}
			} else {
				// Private engine on the shared simulator: exercises
				// concurrent GradBuffers against one diagonal.
				own := sweep.New(sim, sweep.Options{Workers: 2})
				if _, err := own.SweepGrad(context.Background(), points, nil); err != nil {
					errs <- err
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSweepGradPhaseTableConcurrent is the race check for the per-γ
// phase tables: they live in each worker's gradient workspace, never on
// the shared Simulator, so concurrent gradient sweeps with different
// angle sets over one shared table-driven simulator (float64 grid and
// quantized codes) must each reproduce their own sequential results
// bit for bit.
func TestSweepGradPhaseTableConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const n, p, count = 10, 3, 12
	for _, opts := range []core.Options{{Workers: 2}, {Workers: 2, Quantize: true}} {
		sim, err := core.New(n, problems.LABSTerms(n), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Even clients share one engine; odd clients each own one. Each
		// client's reference comes from a sequential run at its own
		// engine size, since reductions may regroup with the pool.
		const clients = 6
		engineWorkers := func(k int) int {
			if k%2 == 0 {
				return 3
			}
			return 1 + k%3
		}
		sets := make([][]sweep.Point, clients)
		want := make([][]sweep.GradResult, clients)
		for k := range sets {
			sets[k] = randomPoints(rng, count, p)
			want[k], err = sweep.New(sim, sweep.Options{Workers: engineWorkers(k)}).SweepGrad(context.Background(), sets[k], nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		shared := sweep.New(sim, sweep.Options{Workers: engineWorkers(0)})
		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				eng := shared
				if k%2 == 1 {
					eng = sweep.New(sim, sweep.Options{Workers: engineWorkers(k)})
				}
				for rep := 0; rep < 3; rep++ {
					res, err := eng.SweepGrad(context.Background(), sets[k], nil)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range res {
						w := want[k][i]
						if res[i].Energy != w.Energy {
							t.Errorf("quantize=%v client %d point %d: energy %v != %v", opts.Quantize, k, i, res[i].Energy, w.Energy)
						}
						for l := 0; l < p; l++ {
							if res[i].GradGamma[l] != w.GradGamma[l] || res[i].GradBeta[l] != w.GradBeta[l] {
								t.Errorf("quantize=%v client %d point %d layer %d: gradient differs", opts.Quantize, k, i, l)
							}
						}
					}
				}
			}(k)
		}
		wg.Wait()
	}
}

// TestSweepGradZeroAllocsPerPoint pins the buffer-reuse contract
// exactly on the serial backend (no goroutine machinery): a warmed-up
// gradient sweep through a retained result slice performs zero
// allocations.
func TestSweepGradZeroAllocsPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const n, p, count = 8, 4, 32
	sim, err := core.New(n, problems.LABSTerms(n), core.Options{Backend: core.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sim, sweep.Options{Workers: 1})
	points := randomPoints(rng, count, p)
	out := make([]sweep.GradResult, 0, count)
	var err2 error
	out, err2 = eng.SweepGrad(context.Background(), points, out) // warm-up: workspace + gradient slices
	if err2 != nil {
		t.Fatal(err2)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.SweepGrad(context.Background(), points, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed-up %d-point gradient sweep allocated %.1f times per run, want 0", count, allocs)
	}
}

// TestSweepGradNoPerPointStateAllocations bounds the pooled backends:
// a warmed-up gradient sweep must not allocate per-point state-sized
// buffers (the workspace pair is pooled per worker). The residual
// per-point allocations are kernel-launch overhead — goroutine
// closures and per-chunk partial slices, a fixed cost per Pool call
// that a gradient pays ~4× as often as a forward simulation but that
// does not scale with 2^n — so the bound is half of one state buffer,
// an order of magnitude under the 2×stateBytes a fresh workspace per
// point would cost. The kernel pool is pinned at 4 workers to keep the
// launch overhead machine-independent.
func TestSweepGradNoPerPointStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const n, p, count = 12, 4, 64
	stateBytes := 2 * 8 * (1 << n) // SoA: Re + Im float64 slices
	terms := problems.LABSTerms(n)
	for _, workers := range []int{1, 4} {
		sim, err := core.New(n, terms, core.Options{Backend: core.BackendSoA, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		eng := sweep.New(sim, sweep.Options{Workers: workers})
		points := randomPoints(rng, count, p)
		out := make([]sweep.GradResult, 0, count)
		out, err = eng.SweepGrad(context.Background(), points, out)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := eng.SweepGrad(context.Background(), points, out); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perPoint := (after.TotalAlloc - before.TotalAlloc) / count
		if perPoint > uint64(stateBytes)/2 {
			t.Errorf("workers=%d: %d bytes allocated per point; want ≪ one fresh %d-byte workspace pair",
				workers, perPoint, 2*stateBytes)
		}
	}
}
