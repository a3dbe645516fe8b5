package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qokit"
)

// churn is the registry_churn input: a seeded population of SK
// problems with Zipf-like popularity, and the fixed points each
// request evaluates on its problem.
type churn struct {
	specs  []qokit.ProblemSpec
	points [][][]float64 // per problem, churnPoints flat p = 2 vectors
	rank   []int         // rank[r] is the problem with popularity rank r
	cum    []float64     // cumulative popularity by rank (weight (rank+1)^-churnZipf)
}

func newChurn(seed int64) churn {
	var c churn
	rng := rand.New(rand.NewSource(seed))
	c.rank = rng.Perm(churnProblems)
	total := 0.0
	for i := 0; i < churnProblems; i++ {
		c.specs = append(c.specs, qokit.ProblemSpec{N: churnN, Terms: qokit.SKTerms(churnN, seed*1000+int64(i))})
		pts := make([][]float64, churnPoints)
		for j := range pts {
			pts[j] = []float64{0.1 + 0.5*rng.Float64(), 0.1 + 0.5*rng.Float64(), 0.1 + 0.4*rng.Float64(), 0.1 + 0.4*rng.Float64()}
		}
		c.points = append(c.points, pts)
		total += math.Pow(float64(i+1), -churnZipf)
		c.cum = append(c.cum, total)
	}
	return c
}

// stream is the sequence of requested problems. The sequence of
// popularity ranks is the same for every seed, so the hit/miss pattern
// (and with it the cold share) does not move with the seed; the seed
// decides which problem holds each rank.
func (c churn) stream() func() int {
	rng := rand.New(rand.NewSource(1))
	return func() int {
		u := rng.Float64() * c.cum[len(c.cum)-1]
		return c.rank[sort.SearchFloat64s(c.cum, u)]
	}
}

func (c churn) regOpts() qokit.RegistryOptions {
	return qokit.RegistryOptions{MaxBytes: int64(churnResident) * 8 << churnN}
}

// churnResult is one request's outcome, kept for the output checks.
type churnResult struct {
	problem  int
	energies []float64
}

// churnTracing carries the traced run's shared state across requests.
type churnTracing struct {
	tr              *tracer
	lat             evalStats
	mu              sync.Mutex
	builds, retires int64
	peakWorkers     int
	residentPeak    int64
}

// request runs one churn request against reg: Register (idempotent),
// NewRegistryService, a churnPoints-point EnergyBatch, then Close. With
// grad set it asks for the energy and gradient of the first point
// instead. It is cold when the registry's Precomputes counter moved
// meanwhile.
func (c churn) request(ctx context.Context, reg *qokit.ProblemRegistry, problem int, grad bool, ct *churnTracing) (request, []float64) {
	var tr *tracer
	if ct != nil {
		tr = ct.tr
	}
	pre := reg.Stats().Precomputes
	id := tr.newID()
	start := time.Now()
	var energies []float64
	err := func() error {
		key, err := reg.Register(c.specs[problem])
		tr.record(tr.newID(), id, id, "registry.register", start, time.Now())
		if err != nil {
			return err
		}
		var svc *qokit.Service
		var tf *tracedFactory
		buildStart := time.Now()
		if tr == nil {
			svc, err = qokit.NewRegistryService(reg, key, qokit.RegistryServiceOptions{})
		} else {
			svc, tf, err = newTracedService(reg, key, qokit.RegistryServiceOptions{}, tr, id, id, &ct.lat)
		}
		tr.record(tr.newID(), id, id, "service.build", buildStart, time.Now())
		if err != nil {
			return err
		}
		bctx := ctx
		if tr != nil {
			bctx = withReq(ctx, &reqInfo{req: id, span: id, submit: time.Now()})
		}
		if grad {
			x := c.points[problem][0]
			var e float64
			e, err = svc.EnergyGrad(bctx, x, make([]float64, len(x)))
			energies = []float64{e}
		} else {
			energies, err = svc.EnergyBatch(bctx, c.points[problem], nil)
		}
		closeStart := time.Now()
		svc.Close()
		tr.record(tr.newID(), id, id, "service.close", closeStart, time.Now())
		if ct != nil {
			ct.mu.Lock()
			ct.builds += tf.builds.Load()
			ct.retires += tf.retires.Load()
			ct.peakWorkers = max(ct.peakWorkers, svc.PeakWorkers())
			ct.residentPeak = max(ct.residentPeak, reg.Stats().ResidentBytes)
			ct.mu.Unlock()
		}
		return err
	}()
	end := time.Now()
	tr.record(id, 0, id, "request", start, end)
	return request{lat: end.Sub(start), cold: reg.Stats().Precomputes != pre, err: err}, energies
}

// phase runs the clients in rounds until d has passed: in each round
// every client sends a request for the stream's next problem at once,
// and the next round starts when all have returned. A miss is therefore
// always shared through the registry's single flight, and the registry
// sees one access per round whatever the interleaving, so which
// requests are cold is fixed by the stream. (Clients drawing problems
// independently made the LRU outcome depend on their interleaving, and
// the metrics moved by more than any bound could absorb.)
func (c churn) phase(ctx context.Context, reg *qokit.ProblemRegistry, d time.Duration, ct *churnTracing) (*phase, []churnResult) {
	nc := clients()
	reqs := make([]request, nc)
	energies := make([][]float64, nc)
	p := &phase{}
	var all []churnResult
	draw := c.stream()
	start := time.Now()
	for time.Since(start) < d {
		k := draw()
		var wg sync.WaitGroup
		for cl := 0; cl < nc; cl++ {
			cl := cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				reqs[cl], energies[cl] = c.request(ctx, reg, k, false, ct)
			}()
		}
		wg.Wait()
		for cl := range reqs {
			p.add(reqs[cl], churnPoints)
			if reqs[cl].err == nil {
				all = append(all, churnResult{k, energies[cl]})
			}
		}
	}
	p.start, p.wall = start, time.Since(start)
	p.liveBytes = liveHeapBytes()
	return p, all
}

func runRegistryChurn(cfg config, rep *report) error {
	ctx := context.Background()
	c := newChurn(cfg.seed)

	// Set-up: a fresh registry, every problem registered, and the first
	// request on the most popular problem (a precompute).
	var results []churnResult
	reg, setups, colds, err := repeatSetups(func() (*qokit.ProblemRegistry, time.Duration, error) {
		reg := qokit.NewProblemRegistry(c.regOpts())
		for _, s := range c.specs {
			if _, err := reg.Register(s); err != nil {
				return nil, 0, err
			}
		}
		r, es := c.request(ctx, reg, c.rank[0], false, nil)
		if r.err != nil {
			return nil, 0, fmt.Errorf("first request: %w", r.err)
		}
		results = append(results, churnResult{c.rank[0], es})
		return reg, r.lat, nil
	}, func(*qokit.ProblemRegistry) {})
	if err != nil {
		return err
	}
	rep.attempted += len(setups)

	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	ph, res := c.phase(ctx, reg, d, nil)
	results = append(results, res...)
	if err := ph.firstErr(); err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	c.checkRegistry(rep, reg)

	if !cfg.trace {
		blocks := float64(len(ph.reqs)) / churnProblems
		rep.note("opt_wall_s: wall time per block of %d requests (%.2f blocks)", churnProblems, blocks)
		if err := reportEndToEnd(rep, setups, ph, colds, ph.wall.Seconds()/blocks); err != nil {
			return err
		}
	} else {
		ct := &churnTracing{tr: newTracer()}
		treg := qokit.NewProblemRegistry(c.regOpts())
		tph, tres := c.phase(ctx, treg, d, ct)
		results = append(results, tres...)
		if err := tph.firstErr(); err != nil {
			return fmt.Errorf("traced phase: %w", err)
		}
		// One gradient request, so the gradient path has spans on this
		// workload too.
		probe, e := c.request(ctx, treg, c.rank[0], true, ct)
		if probe.err != nil {
			return fmt.Errorf("traced gradient request: %w", probe.err)
		}
		results = append(results, churnResult{c.rank[0], e})
		c.checkRegistry(rep, treg)
		rep.attempted += len(ph.reqs) + len(tph.reqs) + 1
		rep.failed += ph.failed() + tph.failed()
		reportServe(rep, ct.builds, ct.retires, ct.peakWorkers, ct.peakWorkers*clients(), time.Duration(ct.lat.busyNs.Load()), tph.wall)
		reportOverhead(rep, ph, tph)
		reportLayers(rep, ct.tr, tph.start)
		if err := c.reportReplay(ctx, rep, ct.residentPeak); err != nil {
			return err
		}
		reportNoCluster(rep)
		rep.set("optimize.steps", 0, "count")
		rep.set("optimize.final_energy", 0, "cost")
		rep.note("optimize.* read 0: the churn runs no optimizer")
		pre, err := timePrecompute(churnN, c.specs[0].Terms)
		if err != nil {
			return err
		}
		rep.set("costvec.precompute_s", pre, "s")
		kernelProbe(rep, cfg.host)
		if err := ct.tr.write(spansPath(cfg)); err != nil {
			return err
		}
	}
	return c.checkEnergies(ctx, rep, results)
}

// checkRegistry asserts the registry invariants after a churn: nothing
// is left pinned, and the cache is within its budget.
func (c churn) checkRegistry(rep *report, reg *qokit.ProblemRegistry) {
	st := reg.Stats()
	rep.check(st.PinnedBytes == 0, "registry still pins %d bytes after the churn", st.PinnedBytes)
	rep.check(st.ResidentBytes <= c.regOpts().MaxBytes, "registry holds %d resident bytes over its %d-byte budget", st.ResidentBytes, c.regOpts().MaxBytes)
}

// checkEnergies compares every request's energies with its problem's
// reference, from a simulator built straight from the terms (no
// registry, no service).
func (c churn) checkEnergies(ctx context.Context, rep *report, results []churnResult) error {
	refs := make(map[int][]float64)
	for _, r := range results {
		want, ok := refs[r.problem]
		if !ok {
			sim, err := qokit.NewSimulator(churnN, c.specs[r.problem].Terms, qokit.Options{})
			if err != nil {
				return err
			}
			for _, x := range c.points[r.problem] {
				e, err := sim.Energy(ctx, x)
				if err != nil {
					return err
				}
				want = append(want, e)
			}
			refs[r.problem] = want
		}
		rep.check(allCloseRel(r.energies, want[:len(r.energies)], rtol), "churn problem %d energies %v vs reference %v", r.problem, r.energies, want)
	}
	rep.note("checked %d churn requests over %d problems against fresh simulators to rtol %g", len(results), len(refs), rtol)
	return nil
}

// reportReplay replays the first churnReplay requests of the stream one
// at a time on a fresh registry, twice, and reports the registry counts,
// which must repeat exactly. The timed phases end on a deadline, so
// their counts depend on how many rounds fit; the replay's do not.
func (c churn) reportReplay(ctx context.Context, rep *report, residentPeak int64) error {
	var stats [2]qokit.RegistryStats
	for run := range stats {
		reg := qokit.NewProblemRegistry(c.regOpts())
		draw := c.stream()
		for i := 0; i < churnReplay; i++ {
			r, _ := c.request(ctx, reg, draw(), false, nil)
			if r.err != nil {
				return fmt.Errorf("replay request %d: %w", i, r.err)
			}
		}
		stats[run] = reg.Stats()
	}
	a, b := stats[0], stats[1]
	rep.check(a.Precomputes == b.Precomputes && a.Hits == b.Hits && a.Misses == b.Misses && a.Evictions == b.Evictions,
		"replayed registry counts differ: %+v vs %+v", a, b)
	reportRegistry(rep, a, residentPeak)
	rep.note("registry counts from a %d-request one-at-a-time replay (repeated twice, equal); resident_bytes is the traced phase's peak", churnReplay)
	return nil
}
