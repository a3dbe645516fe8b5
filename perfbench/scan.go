package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qokit"
)

// scanGridPoints lays out the p = 1 γ × β grid as flat [γ, β] vectors.
func scanGridPoints() [][]float64 {
	pts := make([][]float64, 0, scanGrid*scanGrid)
	for i := 0; i < scanGrid; i++ {
		for j := 0; j < scanGrid; j++ {
			pts = append(pts, []float64{math.Pi * float64(i) / scanGrid, math.Pi / 2 * float64(j) / scanGrid})
		}
	}
	return pts
}

func runMaxCutScan(cfg config, rep *report) error {
	ctx := context.Background()
	g, err := qokit.RandomRegular(scanN, 3, cfg.seed)
	if err != nil {
		return err
	}
	terms := qokit.MaxCutTerms(g)
	spec := qokit.ProblemSpec{N: scanN, Terms: terms}
	grid := scanGridPoints()

	t, setups, colds, err := repeatSetups(func() (*target, time.Duration, error) {
		t, err := open(spec, qokit.RegistryServiceOptions{}, nil, 0, 0)
		if err != nil {
			return nil, 0, err
		}
		r := t.call(ctx, func(ctx context.Context) error {
			_, err := t.svc.EnergyBatch(ctx, grid[:scanSlice], nil)
			return err
		})
		if r.err != nil {
			t.close()
			return nil, 0, fmt.Errorf("first EnergyBatch: %w", r.err)
		}
		return t, r.lat, nil
	}, (*target).close)
	if err != nil {
		return err
	}
	rep.attempted += len(setups)

	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	ph, energies := scanPhase(ctx, t, grid, d)
	if err := ph.firstErr(); err != nil {
		t.close()
		return fmt.Errorf("timed phase: %w", err)
	}

	// Output checks: a seeded sample of grid energies, and gradients at
	// two of the sampled points, against an independent BackendSerial
	// simulator.
	rng := rand.New(rand.NewSource(cfg.seed))
	ref, err := qokit.NewSimulator(scanN, terms, qokit.Options{Backend: qokit.BackendSerial})
	if err != nil {
		t.close()
		return err
	}
	refGrad := qokit.NewGradEvaluator(ref)
	checked := 0
	for k := 0; k < 8; k++ {
		i := rng.Intn(len(grid))
		if math.IsNaN(energies[i]) {
			continue // the timed phase did not reach this slice
		}
		want, err := ref.Energy(ctx, grid[i])
		if err != nil {
			t.close()
			return err
		}
		rep.check(closeRel(energies[i], want, rtol), "scan energy %.15g vs BackendSerial %.15g at %v", energies[i], want, grid[i])
		checked++
		if k < 2 {
			g, wg := make([]float64, 2), make([]float64, 2)
			e, err := t.svc.EnergyGrad(ctx, grid[i], g)
			if err != nil {
				t.close()
				return err
			}
			we, err := refGrad.EnergyGrad(ctx, grid[i], wg)
			if err != nil {
				t.close()
				return err
			}
			rep.check(closeRel(e, we, rtol) && allCloseRel(g, wg, rtol), "scan gradient %v (E %.15g) vs BackendSerial %v (E %.15g) at %v", g, e, wg, we, grid[i])
		}
	}
	t.close()
	rep.check(checked > 0, "no sampled grid point was evaluated")
	rep.note("checked %d sampled grid energies and 2 gradients against BackendSerial to rtol %g", checked, rtol)

	if !cfg.trace {
		passes := float64(ph.evals) / float64(len(grid))
		rep.note("opt_wall_s: wall time per full %d-point grid pass (%.2f passes)", len(grid), passes)
		return reportEndToEnd(rep, setups, ph, colds, ph.wall.Seconds()/passes)
	}

	tr := newTracer()
	setupID := tr.newID()
	start := time.Now()
	tt, err := open(spec, qokit.RegistryServiceOptions{}, tr, setupID, setupID)
	if err != nil {
		return err
	}
	tr.record(setupID, 0, setupID, "setup", start, time.Now())
	busy0 := tt.lat.busyNs.Load()
	tph, tenergies := scanPhase(ctx, tt, grid, d)
	busy := time.Duration(tt.lat.busyNs.Load() - busy0)
	// One gradient request, so the gradient path has spans on this
	// workload too.
	probe := tt.call(ctx, func(ctx context.Context) error {
		_, err := tt.svc.EnergyGrad(ctx, grid[0], make([]float64, 2))
		return err
	})
	tt.close()
	if err := tph.firstErr(); err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	if probe.err != nil {
		return fmt.Errorf("traced gradient request: %w", probe.err)
	}
	rep.attempted += len(ph.reqs) + len(tph.reqs) + 1
	rep.failed += ph.failed() + tph.failed()
	best := math.Inf(1)
	for _, e := range tenergies {
		if !math.IsNaN(e) {
			best = math.Min(best, e)
		}
	}
	reportServe(rep, tt.tf.builds.Load(), tt.tf.retires.Load(), tt.svc.PeakWorkers(), tt.svc.PeakWorkers(), busy, tph.wall)
	reportOverhead(rep, ph, tph)
	reportLayers(rep, tr, tph.start)
	reportRegistry(rep, tt.reg.Stats(), tt.reg.Stats().ResidentBytes)
	reportNoCluster(rep)
	rep.set("optimize.steps", 0, "count")
	rep.set("optimize.final_energy", best, "cost")
	rep.note("optimize.final_energy is the lowest grid energy; the scan runs no optimizer")
	pre, err := timePrecompute(scanN, terms)
	if err != nil {
		return err
	}
	rep.set("costvec.precompute_s", pre, "s")
	kernelProbe(rep, cfg.host)
	return tr.write(spansPath(cfg))
}

// scanPhase runs the closed-loop clients: each takes the next 64-point
// slice of the grid and sends it as one EnergyBatch, until d has
// passed. It returns the phase and the energy last computed at each
// grid point (NaN where no slice reached it).
func scanPhase(ctx context.Context, t *target, grid [][]float64, d time.Duration) (*phase, []float64) {
	nc := clients()
	slices := len(grid) / scanSlice
	var next atomic.Int64
	results := make([][]float64, nc) // per client, so clients never share a slot
	phases := make([]phase, nc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nc; c++ {
		c := c
		results[c] = make([]float64, len(grid))
		for i := range results[c] {
			results[c][i] = math.NaN()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, scanSlice)
			for time.Since(start) < d {
				k := int(next.Add(1)-1) % slices
				xs := grid[k*scanSlice : (k+1)*scanSlice]
				r := t.call(ctx, func(ctx context.Context) error {
					var err error
					out, err = t.svc.EnergyBatch(ctx, xs, out)
					return err
				})
				phases[c].add(r, scanSlice)
				if r.err == nil {
					copy(results[c][k*scanSlice:], out)
				}
			}
		}()
	}
	wg.Wait()
	p := &phase{start: start, wall: time.Since(start)}
	p.liveBytes = liveHeapBytes()
	energies := results[0]
	for c := range phases {
		p.reqs = append(p.reqs, phases[c].reqs...)
		p.evals += phases[c].evals
		for i, e := range results[c] {
			if math.IsNaN(energies[i]) {
				energies[i] = e
			}
		}
	}
	return p, energies
}
