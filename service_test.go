package qokit

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// relDiff is |a−b| / max(1, |b|): the rtol the acceptance criteria
// are stated in.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestServiceRoundTrip: one registry-built Service round-trips the
// same three request shapes — a single point, a 64-point grid, and an
// Adam run — on both the single-node sweep backend and a ranks=4
// distributed backend (two workers each), matching the direct engine
// paths to rtol 1e-10.
func TestServiceRoundTrip(t *testing.T) {
	const n, p, rtol = 8, 3, 1e-10
	terms := LABSTerms(n)
	sim, err := NewSimulator(n, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Direct reference paths: one simulator evaluation, one grid via
	// the sweep engine, one Adam run via the adjoint engine.
	gamma, beta := TQAInit(p, 0.75)
	x := append(append([]float64(nil), gamma...), beta...)
	refPoint, err := sim.Energy(ctx, x)
	if err != nil {
		t.Fatal(err)
	}

	gammas := make([]float64, 8)
	betas := make([]float64, 8)
	for i := range gammas {
		gammas[i] = 0.1 + 0.3*float64(i)
		betas[i] = 0.05 + 0.15*float64(i)
	}
	grid := SweepGrid(gammas, betas) // 64 points
	eng := NewSweepEngine(sim, SweepOptions{})
	refGrid, err := eng.Sweep(ctx, grid, nil)
	if err != nil {
		t.Fatal(err)
	}

	var refErr error
	geng := NewGradEngine(sim)
	refAdam := Adam(geng.FlatObjective(ctx, &refErr), x, AdamOptions{MaxIter: 20})
	if refErr != nil {
		t.Fatal(refErr)
	}

	xs := make([][]float64, len(grid))
	for i, pt := range grid {
		xs[i] = append(append([]float64(nil), pt.Gamma...), pt.Beta...)
	}

	reg := NewProblemRegistry(RegistryOptions{})
	key, err := reg.Register(ProblemSpec{N: n, Terms: terms})
	if err != nil {
		t.Fatal(err)
	}
	twoWorkers := ElasticOptions{MinWorkers: 2, MaxWorkers: 2}
	services := []struct {
		name string
		opts RegistryServiceOptions
	}{
		{"local", RegistryServiceOptions{Elastic: twoWorkers}},
		{"distributed-4ranks", RegistryServiceOptions{
			Distributed: &DistOptions{Ranks: 4, Algo: Transpose}, Elastic: twoWorkers,
		}},
	}
	for _, tc := range services {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewRegistryService(reg, key, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()

			// Single point.
			e, err := svc.Energy(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if d := relDiff(e, refPoint); d > rtol {
				t.Errorf("point energy off by rtol %g", d)
			}

			// 64-point grid as one batch request.
			got, err := svc.EnergyBatch(ctx, xs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 64 {
				t.Fatalf("grid returned %d energies", len(got))
			}
			for i := range got {
				if d := relDiff(got[i], refGrid[i].Energy); d > rtol {
					t.Errorf("grid point %d off by rtol %g", i, d)
				}
			}

			// Adam run over the service objective.
			var simErr error
			res := Adam(svc.GradObjective(ctx, &simErr), x, AdamOptions{MaxIter: 20})
			if simErr != nil {
				t.Fatal(simErr)
			}
			if res.Evals != refAdam.Evals {
				t.Errorf("Adam evals %d != direct %d", res.Evals, refAdam.Evals)
			}
			if d := relDiff(res.F, refAdam.F); d > rtol {
				t.Errorf("Adam optimum off by rtol %g", d)
			}
			for i := range res.X {
				if d := math.Abs(res.X[i] - refAdam.X[i]); d > rtol {
					t.Errorf("Adam x[%d] off by %g", i, d)
				}
			}
		})
	}
}

// gatedEvaluator wraps an Evaluator with a size-2 rendezvous: the
// first two evaluations must be in flight simultaneously before
// either proceeds. If the service ever serialized distributed
// evaluations, the rendezvous would time out and fail the test — so
// passing *demonstrates* ≥ 2 concurrent sharded evaluations.
type gatedEvaluator struct {
	Evaluator
	t       *testing.T
	mu      sync.Mutex
	arrived int
	ready   chan struct{}
}

func (g *gatedEvaluator) rendezvous() {
	g.mu.Lock()
	g.arrived++
	n := g.arrived
	g.mu.Unlock()
	if n == 2 {
		close(g.ready)
	}
	select {
	case <-g.ready:
	case <-time.After(30 * time.Second):
		g.t.Error("second concurrent distributed evaluation never arrived: service serialized")
	}
}

func (g *gatedEvaluator) Energy(ctx context.Context, x []float64) (float64, error) {
	g.rendezvous()
	return g.Evaluator.Energy(ctx, x)
}

func (g *gatedEvaluator) EnergyGrad(ctx context.Context, x, grad []float64) (float64, error) {
	g.rendezvous()
	return g.Evaluator.EnergyGrad(ctx, x, grad)
}

// TestDistributedServiceConcurrentEvaluations: two sharded
// evaluations are demonstrably in flight at once on the ranks=4
// substrate (run under -race in CI), and both produce exact results.
func TestDistributedServiceConcurrentEvaluations(t *testing.T) {
	const n, p = 8, 2
	terms := LABSTerms(n)
	deng, err := NewDistributedGradEngine(n, terms, DistOptions{
		Ranks: 4, Algo: Transpose, Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedEvaluator{Evaluator: deng, t: t, ready: make(chan struct{})}
	svc, err := NewElasticService([]EvaluatorFactory{StaticFactory(gate)}, ElasticOptions{MinWorkers: 2, MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sim, err := NewSimulator(n, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gamma, beta := TQAInit(p, 0.6)
	x := append(append([]float64(nil), gamma...), beta...)
	want, err := sim.Energy(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := make([]float64, 2*p)
			var e float64
			var err error
			if k == 0 {
				e, err = svc.Energy(context.Background(), x)
			} else {
				e, err = svc.EnergyGrad(context.Background(), x, g)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if d := relDiff(e, want); d > 1e-10 {
				t.Errorf("concurrent evaluation %d off by rtol %g", k, d)
			}
		}(k)
	}
	wg.Wait()
}
