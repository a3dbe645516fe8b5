package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"qokit"
	"qokit/internal/distsim"
)

// adamWorkload is one client running a fixed-length Adam optimization
// from the TQA initialisation through a registered problem's service:
// labs_opt on the single-node backend, distributed_opt on the sharded
// one.
type adamWorkload struct {
	n, p, iters int
	terms       qokit.Terms
	opts        qokit.RegistryServiceOptions
	// refName and ref give the independent evaluator the service's
	// energies and gradients are checked against.
	refName string
	ref     func() (qokit.Evaluator, error)
}

func runLabsOpt(cfg config, rep *report) error {
	n := labsN
	terms := qokit.LABSTerms(n)
	return adamWorkload{
		n: n, p: labsP, iters: labsAdamIters, terms: terms,
		refName: "BackendSerial",
		ref: func() (qokit.Evaluator, error) {
			sim, err := qokit.NewSimulator(n, terms, qokit.Options{Backend: qokit.BackendSerial})
			if err != nil {
				return nil, err
			}
			return qokit.NewGradEvaluator(sim), nil
		},
	}.run(cfg, rep)
}

func runDistributedOpt(cfg config, rep *report) error {
	n := distN
	terms := qokit.LABSTerms(n)
	ranks := min(2, cfg.host.NProc)
	rep.note("ranks=%d precision=float64", ranks)
	return adamWorkload{
		n: n, p: distP, iters: distAdamIters, terms: terms,
		opts:    qokit.RegistryServiceOptions{Distributed: &qokit.DistOptions{Ranks: ranks}},
		refName: "single-node",
		ref: func() (qokit.Evaluator, error) {
			sim, err := qokit.NewSimulator(n, terms, qokit.Options{})
			if err != nil {
				return nil, err
			}
			return qokit.NewGradEvaluator(sim), nil
		},
	}.run(cfg, rep)
}

// point is one evaluated parameter vector kept for the output checks.
type point struct {
	x, g []float64
	e    float64
}

// adamTarget is an opened target plus the result of its first request.
type adamTarget struct {
	*target
	first    point
	firstLat time.Duration
}

func (w adamWorkload) spec() qokit.ProblemSpec { return qokit.ProblemSpec{N: w.n, Terms: w.terms} }

// openAndFirst is one set-up: register, build the service, and run the
// first EnergyGrad at x0.
func (w adamWorkload) openAndFirst(ctx context.Context, x0 []float64, tr *tracer) (*adamTarget, error) {
	setupID := tr.newID()
	start := time.Now()
	t, err := open(w.spec(), w.opts, tr, setupID, setupID)
	if err != nil {
		return nil, err
	}
	g := make([]float64, len(x0))
	var e float64
	r := t.call(ctx, func(ctx context.Context) error {
		var err error
		e, err = t.svc.EnergyGrad(ctx, x0, g)
		return err
	})
	tr.record(setupID, 0, setupID, "setup", start, time.Now())
	if r.err != nil {
		t.close()
		return nil, fmt.Errorf("first EnergyGrad: %w", r.err)
	}
	return &adamTarget{target: t, first: point{x: x0, g: g, e: e}, firstLat: r.lat}, nil
}

// adamPhase runs fixed-length Adam runs from x0 back to back while
// another run still fits in d (at least one). It returns the phase, the
// wall time of each run, and the first run's result and trajectory.
func (w adamWorkload) adamPhase(ctx context.Context, t *target, x0 []float64, d time.Duration) (*phase, []float64, qokit.AdamResult, []point) {
	p := &phase{}
	var walls []float64
	var first qokit.AdamResult
	var traj []point
	start := time.Now()
	for run := 0; run == 0 || time.Since(start)+time.Duration(walls[0]*float64(time.Second)) <= d; run++ {
		var runErr error
		f := func(x, g []float64) float64 {
			var e float64
			r := t.call(ctx, func(ctx context.Context) error {
				var err error
				e, err = t.svc.EnergyGrad(ctx, x, g)
				return err
			})
			p.add(r, 1)
			if r.err != nil && runErr == nil {
				runErr = r.err
			}
			if run == 0 && r.err == nil {
				traj = append(traj, point{x: append([]float64(nil), x...), g: append([]float64(nil), g...), e: e})
			}
			return e
		}
		runStart := time.Now()
		res := qokit.Adam(f, x0, qokit.AdamOptions{MaxIter: w.iters, Step: adamStep, Ctx: ctx,
			Checkpoint: func(*qokit.AdamState) error { return runErr }})
		walls = append(walls, time.Since(runStart).Seconds())
		if run == 0 {
			first = res
		}
	}
	p.start, p.wall = start, time.Since(start)
	p.liveBytes = liveHeapBytes()
	return p, walls, first, traj
}

func (w adamWorkload) run(cfg config, rep *report) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	// The seed moves the TQA time step, and so the whole trajectory.
	g0, b0 := qokit.TQAInit(w.p, 0.7+0.1*rng.Float64())
	x0 := append(g0, b0...)

	t, setups, colds, err := repeatSetups(func() (*adamTarget, time.Duration, error) {
		at, err := w.openAndFirst(ctx, x0, nil)
		if err != nil {
			return nil, 0, err
		}
		return at, at.firstLat, nil
	}, func(at *adamTarget) { at.close() })
	if err != nil {
		return err
	}
	rep.attempted += len(setups)

	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	ph, walls, res, traj := w.adamPhase(ctx, t.target, x0, d)
	t.close()
	if err := ph.firstErr(); err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}

	if !cfg.trace {
		if err := reportEndToEnd(rep, setups, ph, colds, median(walls)); err != nil {
			return err
		}
		rep.note("opt_wall_s: median of %d Adam runs of %d iterations", len(walls), w.iters)
	} else {
		if err := w.traced(ctx, cfg, rep, x0, ph); err != nil {
			return err
		}
	}

	// Output checks: Adam improves on its start, and a seeded sample of
	// the service's energies and gradients — the first set-up result
	// and one trajectory point — matches the reference evaluator.
	rep.check(res.F < t.first.e, "Adam best energy %.12g is not below the initial energy %.12g", res.F, t.first.e)
	rep.check(len(traj) > 0, "Adam run recorded no trajectory")
	if len(traj) == 0 {
		return nil
	}
	sample := []point{t.first, traj[rng.Intn(len(traj))]}
	ref, err := w.ref()
	if err != nil {
		return err
	}
	for _, pt := range sample {
		g := make([]float64, len(pt.x))
		e, err := ref.EnergyGrad(ctx, pt.x, g)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		rep.check(closeRel(pt.e, e, rtol), "energy %.15g vs %s %.15g at %v", pt.e, w.refName, e, pt.x)
		rep.check(allCloseRel(pt.g, g, rtol), "gradient %v vs %s %v at %v", pt.g, w.refName, g, pt.x)
	}
	rep.note("checked %d points against the %s reference to rtol %g; Adam %.6g -> %.6g", len(sample), w.refName, rtol, t.first.e, res.F)
	return nil
}

// traced runs the traced half: a fresh registry and traced service, its
// first request, and the same Adam phase with spans on; then the layer
// metrics, the collective counts and the kernel probe.
func (w adamWorkload) traced(ctx context.Context, cfg config, rep *report, x0 []float64, untraced *phase) error {
	tr := newTracer()
	at, err := w.openAndFirst(ctx, x0, tr)
	if err != nil {
		return err
	}
	evals0 := at.lat.evals.Load()
	counters0 := rankCounters(at.tf)
	busy0 := at.lat.busyNs.Load()
	ph, _, res, _ := w.adamPhase(ctx, at.target, x0, cfg.seconds/2)
	busy := time.Duration(at.lat.busyNs.Load() - busy0)
	evals := at.lat.evals.Load()
	counters := rankCounters(at.tf)
	busyAll := at.lat.busyNs.Load()
	// One batch request after the counts are read, so the sweep
	// evaluation path has spans on this workload too.
	probe := at.call(ctx, func(ctx context.Context) error {
		_, err := at.svc.EnergyBatch(ctx, [][]float64{x0, res.X}, nil)
		return err
	})
	at.close()
	if probe.err != nil {
		return fmt.Errorf("traced batch request: %w", probe.err)
	}
	reportServe(rep, at.tf.builds.Load(), at.tf.retires.Load(), at.svc.PeakWorkers(), at.svc.PeakWorkers(), busy, ph.wall)
	if err := ph.firstErr(); err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	rep.attempted += 2 + len(ph.reqs)
	rep.failed += ph.failed()

	reportOverhead(rep, untraced, ph)
	reportLayers(rep, tr, ph.start)
	reportRegistry(rep, at.reg.Stats(), at.reg.Stats().ResidentBytes)
	rep.set("optimize.steps", float64(res.Iters), "count")
	rep.set("optimize.final_energy", res.F, "cost")
	pre, err := timePrecompute(w.n, w.terms)
	if err != nil {
		return err
	}
	rep.set("costvec.precompute_s", pre, "s")

	if counters == nil {
		reportNoCluster(rep)
	} else {
		reportCluster(rep, counters0, counters, evals0, evals, busyAll)
	}
	kernelProbe(rep, cfg.host)
	return tr.write(spansPath(cfg))
}

// rankCounters reads each rank's traffic counters from the distributed
// engines a traced factory built (nil for single-node engines). Call
// it only with no evaluation in flight.
func rankCounters(tf *tracedFactory) []qokit.CommCounters {
	var out []qokit.CommCounters
	for _, ev := range tf.engines() {
		eng, ok := ev.(*distsim.GradEngine)
		if !ok {
			return nil
		}
		if out == nil {
			out = make([]qokit.CommCounters, eng.Ranks())
		}
		for r := range out {
			c := eng.RankCounters(r)
			out[r].BytesSent += c.BytesSent
			out[r].Messages += c.Messages
			out[r].Syncs += c.Syncs
			out[r].CommWall = max(out[r].CommWall, c.CommWall)
		}
	}
	return out
}

// reportCluster sets the per-rank, per-evaluation traffic counts and
// checks they are exact: the first evaluation's traffic, multiplied by
// the evaluation count, must equal the total to the byte.
func reportCluster(rep *report, first, total []qokit.CommCounters, evals0, evals, busyNs int64) {
	ranks := int64(len(total))
	var b1, m1, s1, bt, mt, st int64
	var wall time.Duration
	for r := range total {
		b1, m1, s1 = b1+first[r].BytesSent, m1+first[r].Messages, s1+first[r].Syncs
		bt, mt, st = bt+total[r].BytesSent, mt+total[r].Messages, st+total[r].Syncs
		wall = max(wall, total[r].CommWall)
	}
	rep.check(evals0 == 1, "expected one evaluation before the traced phase, saw %d", evals0)
	rep.check(bt == evals*b1 && mt == evals*m1 && st == evals*s1,
		"collective counts are not exact per evaluation: first eval %d B/%d msgs/%d syncs, %d evals total %d B/%d msgs/%d syncs",
		b1, m1, s1, evals, bt, mt, st)
	rep.set("cluster.bytes_per_rank", float64(b1)/float64(ranks), "count/eval")
	rep.set("cluster.messages_per_rank", float64(m1)/float64(ranks), "count/eval")
	rep.set("cluster.syncs_per_rank", float64(s1)/float64(ranks), "count/eval")
	rep.set("cluster.comm_wall_frac", wall.Seconds()/time.Duration(busyNs).Seconds(), "ratio")
	rep.note("cluster counts over %d evaluations on %d ranks", evals, ranks)
}
