package main

import (
	"flag"
	"fmt"
	"io"

	"qokit/internal/benchutil"
	"qokit/internal/classical"
	"qokit/internal/core"
	"qokit/internal/optimize"
	"qokit/internal/problems"
	"qokit/internal/sampling"
)

// runScaling reproduces (at laptop scale) the analysis the paper's
// simulator was built for (§I, §VII, companion Ref. [6]): how the
// time-to-solution of QAOA on LABS grows with n compared to a
// classical heuristic.
//
// QAOA side: simulate depth-p QAOA with the fixed TQA schedule,
// measure the ground-state overlap, and convert it into the expected
// number of shots to observe an optimal sequence with 99% confidence;
// cost is counted in circuit layers (shots × p). Classical side:
// expected simulated-annealing flips to first reach the optimum
// (median over seeds, with restarts). Both series get a fitted
// exponential growth rate b^n — the quantity the scaling-advantage
// argument compares.
func runScaling(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	nmin := fs.Int("nmin", 8, "smallest LABS size")
	nmax := fs.Int("nmax", 16, "largest LABS size")
	p := fs.Int("p", 12, "QAOA depth (fixed TQA schedule; paper: high depth)")
	dt := fs.Float64("dt", 0.55, "TQA time step")
	seeds := fs.Int("seeds", 5, "classical restarts/seeds per size")
	saSteps := fs.Int("sasteps", 30000, "SA steps per restart")
	if err := fs.Parse(args); err != nil {
		return err
	}

	gamma, beta := optimize.TQAInit(*p, *dt)
	tab := benchutil.NewTable("n", "optimum", "QAOA overlap", "shots(99%)", "QAOA layers", "SA flips (median)")
	var ns, qaoaCost, saCost []float64

	for n := *nmin; n <= *nmax; n++ {
		terms := problems.LABSTerms(n)
		sim, err := core.New(n, terms, core.Options{})
		if err != nil {
			return err
		}
		r, err := sim.SimulateQAOA(gamma, beta)
		if err != nil {
			return err
		}
		overlap := r.Overlap()
		shots, err := sampling.SamplesToSolution(overlap, 0.99)
		if err != nil {
			return err
		}
		layers := shots * float64(*p)

		// Classical: median steps-to-optimum over seeds.
		optimum := sim.MinCost()
		steps := make([]int, 0, *seeds)
		for s := 0; s < *seeds; s++ {
			st, err := classical.StepsToOptimum(
				func(x uint64) classical.Walker { return classical.NewLABSWalker(n, x) },
				n, optimum, *saSteps, int64(1000*n+s), 200)
			if err != nil {
				return err
			}
			steps = append(steps, st)
		}
		medianSteps := medianInt(steps)

		tab.Add(fmt.Sprint(n), fmt.Sprintf("%.0f", optimum), fmt.Sprintf("%.3g", overlap),
			fmt.Sprintf("%.3g", shots), fmt.Sprintf("%.3g", layers), fmt.Sprint(medianSteps))
		ns = append(ns, float64(n))
		qaoaCost = append(qaoaCost, layers)
		saCost = append(saCost, float64(medianSteps))
	}

	fmt.Fprintf(w, "LABS time-to-solution scaling (QAOA p=%d TQA dt=%.2f vs simulated annealing)\n", *p, *dt)
	tab.Fprint(w)
	qBase, qR2 := benchutil.FitExpRate(ns, qaoaCost)
	sBase, sR2 := benchutil.FitExpRate(ns, saCost)
	fmt.Fprintf(w, "\nfitted growth: QAOA layers ∝ %.3f^n (r²=%.3f), SA flips ∝ %.3f^n (r²=%.3f)\n",
		qBase, qR2, sBase, sR2)
	fmt.Fprintln(w, "(the paper's companion, Ref. [6], runs this comparison to n=40 with optimized")
	fmt.Fprintln(w, " parameters and reports a smaller QAOA growth rate; at fixed unoptimized TQA")
	fmt.Fprintln(w, " schedules and small n the rates here are indicative only — the point of this")
	fmt.Fprintln(w, " harness is that the 40-qubit version of the study is exactly this code path)")
	return nil
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[(len(s)-1)/2]
}
