package statevec

import (
	"math"
	"math/rand"
	"testing"
)

// fwhtReference is the textbook one-stage-per-traversal transform the
// blocked implementation must agree with.
func fwhtReference(v Vec) {
	n := v.NumQubits()
	inv := complex(1/math.Sqrt2, 0)
	for q := 0; q < n; q++ {
		stride := 1 << uint(q)
		for base := 0; base < len(v); base += 2 * stride {
			for off := 0; off < stride; off++ {
				l1 := base + off
				l2 := l1 + stride
				y1, y2 := v[l1], v[l2]
				v[l1] = (y1 + y2) * inv
				v[l2] = (y1 - y2) * inv
			}
		}
	}
}

// TestFWHTBlockedMatchesReference drives the blocked transform with
// artificially small block lengths so every split of low/high stages —
// including radix-4 pairs and the trailing unpaired stage — is
// exercised against the per-stage reference. The radix-4 pairing
// merges two 1/√2 normalizations into one 1/2, so agreement is to
// rounding, not bit-exact.
func TestFWHTBlockedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 10; n++ {
		orig := randomState(rng, n)
		want := orig.Clone()
		fwhtReference(want)
		for _, blockLen := range []int{2, 4, 16, 1 << 14} {
			got := orig.Clone()
			fwhtSerial(got, blockLen)
			if d := MaxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("n=%d blockLen=%d blocked FWHT deviates by %g", n, blockLen, d)
			}
		}
	}
}

// TestFWHTRealPlanes checks the generic transform over real element
// types: a complex state transforms exactly as its Re/Im planes
// transformed independently (the FWHT is real-linear), in both
// float64 and float32 (to single-precision tolerance).
func TestFWHTRealPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 7
	v := randomState(rng, n)
	want := v.Clone()
	FWHT(want)

	re64 := make([]float64, len(v))
	im64 := make([]float64, len(v))
	re32 := make([]float32, len(v))
	im32 := make([]float32, len(v))
	for i, a := range v {
		re64[i], im64[i] = real(a), imag(a)
		re32[i], im32[i] = float32(real(a)), float32(imag(a))
	}
	fwhtSerial(re64, 16)
	fwhtSerial(im64, 16)
	fwhtSerial(re32, 16)
	fwhtSerial(im32, 16)
	for i := range want {
		if d := math.Abs(re64[i] - real(want[i])); d > 1e-12 {
			t.Fatalf("float64 Re plane deviates at %d by %g", i, d)
		}
		if d := math.Abs(im64[i] - imag(want[i])); d > 1e-12 {
			t.Fatalf("float64 Im plane deviates at %d by %g", i, d)
		}
		if d := math.Abs(float64(re32[i]) - real(want[i])); d > 1e-5 {
			t.Fatalf("float32 Re plane deviates at %d by %g", i, d)
		}
	}
}
