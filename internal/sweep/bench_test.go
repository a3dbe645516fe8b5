package sweep_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"qokit/internal/core"
	"qokit/internal/problems"
	"qokit/internal/sweep"
)

// BenchmarkBatchEvaluation compares the two ways to evaluate a
// 64-point parameter batch against one precomputed diagonal at
// paper-scale sizes (n = 16–20, p = 10): point-at-a-time SimulateQAOA
// (a fresh state buffer per point, the pre-engine hot path of
// OptimizeParameters) versus the sweep engine (shared simulator,
// per-worker reusable buffers). Run with -benchmem: the batched
// variant's B/op stays flat in batch size where the point-at-a-time
// variant pays two 2^n float64 slices per point.
//
//	go test ./internal/sweep -bench BatchEvaluation -benchmem
func BenchmarkBatchEvaluation(b *testing.B) {
	const p, count = 10, 64
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 18, 20} {
		terms := problems.LABSTerms(n)
		sim, err := core.New(n, terms, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		points := randomPoints(rng, count, p)

		b.Run(fmt.Sprintf("point-at-a-time/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pt := range points {
					r, err := sim.SimulateQAOA(pt.Gamma, pt.Beta)
					if err != nil {
						b.Fatal(err)
					}
					_ = r.Expectation()
				}
			}
		})
		b.Run(fmt.Sprintf("batched/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			eng := sweep.New(sim, sweep.Options{})
			out := make([]sweep.Result, 0, count)
			var err error
			if out, err = eng.Sweep(context.Background(), points, out); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, err = eng.Sweep(context.Background(), points, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleEvaluate isolates the buffer-reuse win on the
// sequential optimizer path: one objective evaluation through the
// engine's pooled buffer versus a fresh SimulateQAOA.
func BenchmarkSingleEvaluate(b *testing.B) {
	const n, p = 16, 10
	rng := rand.New(rand.NewSource(2))
	terms := problems.LABSTerms(n)
	sim, err := core.New(n, terms, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pt := randomPoints(rng, 1, p)[0]

	b.Run("simulate-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := sim.SimulateQAOA(pt.Gamma, pt.Beta)
			if err != nil {
				b.Fatal(err)
			}
			_ = r.Expectation()
		}
	})
	b.Run("engine-evaluate", func(b *testing.B) {
		b.ReportAllocs()
		eng := sweep.New(sim, sweep.Options{})
		if _, err := eng.Evaluate(context.Background(), pt.Gamma, pt.Beta); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate(context.Background(), pt.Gamma, pt.Beta); err != nil {
				b.Fatal(err)
			}
		}
	})
}
