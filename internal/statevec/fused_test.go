package statevec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPairFusedSweepMatchesAlgorithm2(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for _, beta := range []float64{0, 0.31, -1.2, math.Pi / 2} {
			v := randomState(rng, n)
			want := v.Clone()
			ApplyUniformRX(want, beta)

			serial := v.Clone()
			ApplyUniformRXFused(serial, beta)
			if d := MaxAbsDiff(serial, want); d > 1e-12 {
				t.Fatalf("n=%d β=%v: serial fused differs by %g", n, beta, d)
			}

			p := NewPool(3)
			p.minParallel = 1
			pooled := v.Clone()
			p.ApplyUniformRXFused(pooled, beta)
			if d := MaxAbsDiff(pooled, want); d > 1e-12 {
				t.Fatalf("n=%d β=%v: pooled fused differs by %g", n, beta, d)
			}

			soa := SoAFromVec(v)
			soa.ApplyUniformRXFused(p, beta)
			if d := MaxAbsDiff(soa.ToVec(), want); d > 1e-12 {
				t.Fatalf("n=%d β=%v: SoA fused differs by %g", n, beta, d)
			}
		}
	}
}

// Property (testing/quick): the fused sweep is unitary for any angle.
func TestQuickFusedUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	v := randomState(rng, 7) // odd n exercises the tail sweep
	f := func(raw int8) bool {
		beta := float64(raw) / 13
		w := v.Clone()
		ApplyUniformRXFused(w, beta)
		return math.Abs(w.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFusedVsPerQubitMixer(b *testing.B) {
	n := 18
	p := NewPool(0)
	b.Run("per-qubit-aos", func(b *testing.B) {
		v := NewUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ApplyUniformRX(v, 0.57)
		}
	})
	b.Run("fused-aos", func(b *testing.B) {
		v := NewUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ApplyUniformRXFused(v, 0.57)
		}
	})
	b.Run("per-qubit-soa", func(b *testing.B) {
		s := NewSoAUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ApplyUniformRX(p, 0.57)
		}
	})
	b.Run("fused-soa", func(b *testing.B) {
		s := NewSoAUniform(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ApplyUniformRXFused(p, 0.57)
		}
	})
}
