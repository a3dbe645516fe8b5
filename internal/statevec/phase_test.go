package statevec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vecBits, soaBits and soa32Bits flatten a state to its bit patterns.
func vecBits(v Vec) []uint64 {
	out := make([]uint64, 0, 2*len(v))
	for _, a := range v {
		out = append(out, math.Float64bits(real(a)), math.Float64bits(imag(a)))
	}
	return out
}

func soaBits(s *SoA) []uint64 {
	out := make([]uint64, 0, 2*len(s.Re))
	for i := range s.Re {
		out = append(out, math.Float64bits(s.Re[i]), math.Float64bits(s.Im[i]))
	}
	return out
}

func soa32Bits(s *SoA32) []uint64 {
	out := make([]uint64, 0, 2*len(s.Re))
	for i := range s.Re {
		out = append(out, uint64(math.Float32bits(s.Re[i])), uint64(math.Float32bits(s.Im[i])))
	}
	return out
}

func assertBits(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d differs: %#x vs %#x", label, i, got[i], want[i])
		}
	}
}

// gridDiag returns a diagonal of random half-integers in [−20, 20], so
// it lies on the ½ grid but not the unit grid.
func gridDiag(rng *rand.Rand, size int) []float64 {
	d := make([]float64, size)
	for i := range d {
		d[i] = 0.5 * float64(rng.Intn(81)-40)
	}
	d[0] = 0.5 // an odd half next to an integer
	if size > 1 {
		d[1] = 1
	}
	return d
}

// refPhase, refPhaseSoA and refPhaseSoA32 are the reference phase
// operators: per-amplitude sincos, written out independently of the
// kernels under test.
func refPhase(v Vec, diag []float64, gamma float64) {
	for i := range v {
		s, c := math.Sincos(-gamma * diag[i])
		v[i] *= complex(c, s)
	}
}

func refPhaseSoA(s *SoA, diag []float64, gamma float64) {
	for i := range s.Re {
		sn, cs := math.Sincos(-gamma * diag[i])
		r, m := s.Re[i], s.Im[i]
		s.Re[i] = r*cs - m*sn
		s.Im[i] = r*sn + m*cs
	}
}

func refPhaseSoA32(s *SoA32, diag []float64, gamma float64) {
	for i := range s.Re {
		sn64, cs64 := math.Sincos(-gamma * diag[i])
		sn, cs := float32(sn64), float32(cs64)
		r, m := s.Re[i], s.Im[i]
		s.Re[i] = r*cs - m*sn
		s.Im[i] = r*sn + m*cs
	}
}

// TestPhaseTableKernelsMatchSincos checks every Phase kernel — plain,
// fused (F = 1 and F = 2), and the PhaseDiag and
// SoA.ApplyPhaseThenUniformRXFused forms built on them — on every
// representation, bit for
// bit, against the reference phase followed by the unfused mixer
// sweep, with factors from sincos, from a table indexed by the
// diagonal, and from a table indexed by codes. Pools split at odd
// chunk sizes so chunk and factor-block boundaries disagree.
func TestPhaseTableKernelsMatchSincos(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 2, 3, 9, 10, 12} {
		size := 1 << n
		diag := gridDiag(rng, size)
		grid := DiagGrid(diag, []float64{1, 0.5}, MaxPhaseLevels)
		if grid.Levels == 0 || (n > 0 && grid.Scale != 0.5) {
			t.Fatalf("n=%d: half-integer diagonal got grid %+v", n, grid)
		}
		codes := make([]uint16, size)
		for i, v := range diag {
			codes[i] = uint16((v - grid.Min) / grid.Scale)
		}
		coded := grid
		coded.Codes = codes
		gamma, beta := 0.37+0.05*float64(n), -0.61+0.03*float64(n)
		v := randomState(rng, n)
		v.Normalize()

		var tab, codeTab PhaseTable
		sources := map[string]Phase{
			"sincos": {Gamma: gamma, Diag: diag},
			"diag":   NewPhase(diag, gamma, &grid, &tab),
			"codes":  NewPhase(diag, gamma, &coded, &codeTab),
		}
		pool := &Pool{Workers: 3, minParallel: 1}

		// References: phase, phase then per-qubit sweep (serial only),
		// phase then F = 2 sweep.
		vecRef := [3]Vec{v.Clone(), v.Clone(), v.Clone()}
		soaRef := [3]*SoA{SoAFromVec(v), SoAFromVec(v), SoAFromVec(v)}
		soa32Ref := [3]*SoA32{SoA32FromVec(v), SoA32FromVec(v), SoA32FromVec(v)}
		for i := range vecRef {
			refPhase(vecRef[i], diag, gamma)
			refPhaseSoA(soaRef[i], diag, gamma)
			refPhaseSoA32(soa32Ref[i], diag, gamma)
		}
		ApplyUniformRX(vecRef[1], beta)
		ApplyUniformRXFused(vecRef[2], beta)
		soaRef[2].ApplyUniformRXFused(pool, beta)
		soa32Ref[2].ApplyUniformRXFused(pool, beta)

		for src, ph := range sources {
			if (src == "sincos") == (ph.fac != nil) {
				t.Fatalf("%s: table factors %v", src, ph.fac != nil)
			}
			label := func(k string) string { return fmt.Sprintf("n=%d %s/%s", n, src, k) }
			for i, k := range []struct {
				name  string
				vec   []func(Vec)
				soa   []func(*SoA)
				soa32 []func(*SoA32)
			}{
				{"phase",
					[]func(Vec){func(x Vec) { ApplyPhase(x, ph) }, func(x Vec) { pool.ApplyPhase(x, ph) }},
					[]func(*SoA){func(s *SoA) { s.ApplyPhase(pool, ph) }},
					[]func(*SoA32){func(s *SoA32) { s.ApplyPhase(pool, ph) }}},
				{"layer", // the per-qubit layer is the serial reference only
					[]func(Vec){func(x Vec) { ApplyPhaseRX(x, ph, beta) }}, nil, nil},
				{"pairLayer",
					[]func(Vec){func(x Vec) { ApplyPhaseRXFused(x, ph, beta) }, func(x Vec) { pool.ApplyPhaseRXFused(x, ph, beta) }},
					[]func(*SoA){func(s *SoA) { s.ApplyPhaseRXFused(pool, ph, beta) }},
					[]func(*SoA32){func(s *SoA32) { s.ApplyPhaseRXFused(pool, ph, beta) }}},
			} {
				for j, f := range k.vec {
					got := v.Clone()
					f(got)
					assertBits(t, label(fmt.Sprintf("vec %s #%d", k.name, j)), vecBits(got), vecBits(vecRef[i]))
				}
				for _, f := range k.soa {
					got := SoAFromVec(v)
					f(got)
					assertBits(t, label("soa "+k.name), soaBits(got), soaBits(soaRef[i]))
				}
				for _, f := range k.soa32 {
					got := SoA32FromVec(v)
					f(got)
					assertBits(t, label("soa32 "+k.name), soa32Bits(got), soa32Bits(soa32Ref[i]))
				}
			}
		}

		// The diagonal-and-γ forms evaluate sincos through the same
		// kernels.
		for i, f := range []func(Vec){
			func(x Vec) { PhaseDiag(x, diag, gamma) },
			func(x Vec) { pool.PhaseDiag(x, diag, gamma) },
		} {
			got := v.Clone()
			f(got)
			assertBits(t, fmt.Sprintf("n=%d diag form %d", n, i), vecBits(got), vecBits(vecRef[0]))
		}
		got := SoAFromVec(v)
		got.PhaseDiag(pool, diag, gamma)
		assertBits(t, fmt.Sprintf("n=%d soa diag form", n), soaBits(got), soaBits(soaRef[0]))
		got = SoAFromVec(v)
		got.ApplyPhaseThenUniformRXFused(pool, diag, gamma, beta)
		assertBits(t, fmt.Sprintf("n=%d soa fused diag form", n), soaBits(got), soaBits(soaRef[2]))
		got32 := SoA32FromVec(v)
		got32.PhaseDiag(pool, diag, gamma)
		assertBits(t, fmt.Sprintf("n=%d soa32 diag form", n), soa32Bits(got32), soa32Bits(soa32Ref[0]))
	}
}

// TestPhaseTableReuse checks the workspace cache: a warm table for the
// same key is returned without refilling or allocating, and a new γ
// (including −0 against +0) or a new grid refills it.
func TestPhaseTableReuse(t *testing.T) {
	g := PhaseGrid{Min: -3, Scale: 0.5, Levels: 13}
	var tab PhaseTable
	f1 := tab.factors(&g, 0.4)
	if allocs := testing.AllocsPerRun(10, func() { tab.factors(&g, 0.4) }); allocs != 0 {
		t.Errorf("warm table allocated %.0f times", allocs)
	}
	want := func(gamma float64, k int) complex128 {
		s, c := math.Sincos(-gamma * (g.Min + g.Scale*float64(k)))
		return complex(c, s)
	}
	for k, f := range f1 {
		if f != want(0.4, k) {
			t.Fatalf("entry %d = %v, want %v", k, f, want(0.4, k))
		}
	}
	f2 := tab.factors(&g, -0.7)
	if f2[5] != want(-0.7, 5) {
		t.Fatalf("refill for new γ: %v, want %v", f2[5], want(-0.7, 5))
	}
	// γ = +0 and γ = −0 give sin(±0) of opposite signs: −0 must not
	// hit the +0 table's cache entry.
	tab.factors(&g, 0)
	negZero := math.Copysign(0, -1)
	for k, f := range tab.factors(&g, negZero) {
		if w := want(negZero, k); math.Float64bits(imag(f)) != math.Float64bits(imag(w)) {
			t.Fatalf("γ=−0 entry %d = %v, want %v (stale +0 table)", k, f, w)
		}
	}
	g2 := PhaseGrid{Min: -3, Scale: 0.25, Levels: 30}
	s, c := math.Sincos(0.7 * (g2.Min + g2.Scale*29))
	if f := tab.factors(&g2, -0.7); len(f) != 30 || f[29] != complex(c, s) {
		t.Fatalf("refill for new grid: len %d, last %v, want %v", len(f), f[len(f)-1], complex(c, s))
	}
}

// TestPhaseTableGridRejects checks the grid detector refuses diagonals
// a table cannot reproduce bit for bit.
func TestPhaseTableGridRejects(t *testing.T) {
	scales := []float64{1, 0.5, 0.25, 0.125, 0.0625}
	for name, diag := range map[string][]float64{
		"gaussian":  {0.31, -1.7, 2.2, 0.05},
		"nan":       {0, 1, math.NaN(), 2},
		"inf":       {0, 1, math.Inf(1), 2},
		"negZero":   {math.Copysign(0, -1), 1, 2, 3},
		"tooWide":   {0, 1, 2, 100},
		"finerStep": {0, 1.0 / 32, 2, 3},
	} {
		if g := DiagGrid(diag, scales, 64); g.Levels != 0 {
			t.Errorf("%s: got grid %+v, want none", name, g)
		}
	}
	if g := DiagGrid([]float64{-2, 5, 5, -2}, scales, 64); g.Levels != 8 || g.Min != -2 || g.Scale != 1 {
		t.Errorf("integer diagonal: grid %+v", g)
	}
	if g := DiagGrid([]float64{4, 4}, scales, 64); g.Levels != 1 {
		t.Errorf("constant diagonal: grid %+v", g)
	}
}

// TestPairKernelsMatchGradReductions checks the paired reverse-pass
// kernels against the separate sequence they replace: PairUniformRX
// against ImDotXAll plus one ApplyUniformRX per state, PairPhase
// against ImDotDiag plus the reference phase per state. States must match bit
// for bit, derivatives to rounding.
func TestPairKernelsMatchGradReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{0, 1, 2, 5, 10, 12} {
		size := 1 << n
		diag := gridDiag(rng, size)
		grid := DiagGrid(diag, []float64{1, 0.5}, MaxPhaseLevels)
		var tab PhaseTable
		beta, gamma := -0.43, 0.58
		lam, psi := randState(rng, n), randState(rng, n)
		pool := &Pool{Workers: 3, minParallel: 1}
		for _, ph := range []Phase{{Gamma: gamma, Diag: diag}, NewPhase(diag, gamma, &grid, &tab)} {
			closeTo := func(label string, got, want, tol float64) {
				t.Helper()
				if math.Abs(got-want) > tol {
					t.Errorf("n=%d %s: %v, want %v", n, label, got, want)
				}
			}

			// complex128, serial and pooled.
			for _, pooled := range []bool{false, true} {
				wl, wp := lam.Clone(), psi.Clone()
				gl, gp := lam.Clone(), psi.Clone()
				wantX := ImDotXAll(wl, wp)
				ApplyUniformRX(wl, beta)
				ApplyUniformRX(wp, beta)
				var gotX float64
				if pooled {
					gotX = pool.PairUniformRX(gl, gp, beta)
				} else {
					gotX = PairUniformRX(gl, gp, beta)
				}
				closeTo("vec PairUniformRX", gotX, wantX, 1e-12)
				assertBits(t, "vec rx λ", vecBits(gl), vecBits(wl))
				assertBits(t, "vec rx ψ", vecBits(gp), vecBits(wp))

				wantC := ImDotDiag(wl, wp, diag)
				refPhase(wl, diag, gamma)
				refPhase(wp, diag, gamma)
				var gotC float64
				if pooled {
					gotC = pool.PairPhase(gl, gp, ph)
				} else {
					gotC = PairPhase(gl, gp, ph)
					if gotC != wantC {
						t.Errorf("n=%d serial PairPhase %v, want ImDotDiag's %v exactly", n, gotC, wantC)
					}
				}
				closeTo("vec PairPhase", gotC, wantC, 1e-12)
				assertBits(t, "vec phase λ", vecBits(gl), vecBits(wl))
				assertBits(t, "vec phase ψ", vecBits(gp), vecBits(wp))
			}

			// SoA float64.
			wl, wp := SoAFromVec(lam), SoAFromVec(psi)
			gl, gp := SoAFromVec(lam), SoAFromVec(psi)
			wantX := wl.ImDotXAll(pool, wp)
			wl.ApplyUniformRX(pool, beta)
			wp.ApplyUniformRX(pool, beta)
			closeTo("soa PairUniformRX", gl.PairUniformRX(pool, gp, beta), wantX, 1e-12)
			wantC := wl.ImDotDiag(pool, wp, diag)
			refPhaseSoA(wl, diag, gamma)
			refPhaseSoA(wp, diag, gamma)
			closeTo("soa PairPhase", gl.PairPhase(pool, gp, ph), wantC, 1e-12)
			assertBits(t, "soa λ", soaBits(gl), soaBits(wl))
			assertBits(t, "soa ψ", soaBits(gp), soaBits(wp))

			// SoA float32.
			wl32, wp32 := SoA32FromVec(lam), SoA32FromVec(psi)
			gl32, gp32 := SoA32FromVec(lam), SoA32FromVec(psi)
			wantX = wl32.ImDotXAll(pool, wp32)
			sweepRX32(wl32, pool, beta)
			sweepRX32(wp32, pool, beta)
			closeTo("soa32 PairUniformRX", gl32.PairUniformRX(pool, gp32, beta), wantX, 1e-6)
			wantC = wl32.ImDotDiag(pool, wp32, diag)
			refPhaseSoA32(wl32, diag, gamma)
			refPhaseSoA32(wp32, diag, gamma)
			closeTo("soa32 PairPhase", gl32.PairPhase(pool, gp32, ph), wantC, 1e-10)
			assertBits(t, "soa32 λ", soa32Bits(gl32), soa32Bits(wl32))
			assertBits(t, "soa32 ψ", soa32Bits(gp32), soa32Bits(wp32))
		}
	}
}
