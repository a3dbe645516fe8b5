package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// closeRel reports whether got matches want to relative tolerance rtol
// (with an absolute floor of rtol for values near zero).
func closeRel(got, want, rtol float64) bool {
	return math.Abs(got-want) <= rtol*math.Max(1, math.Abs(want))
}

// allCloseRel is closeRel over two equal-length vectors.
func allCloseRel(got, want []float64, rtol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !closeRel(got[i], want[i], rtol) {
			return false
		}
	}
	return true
}
