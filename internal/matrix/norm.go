package matrix

import "math"

// NormFrob returns the Frobenius norm of a, accumulated with scaling to
// avoid overflow for the very tall matrices this library targets.
func NormFrob(a *Dense) float64 {
	var scale, ssq float64 = 0, 1
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			if v == 0 {
				continue
			}
			av := math.Abs(v)
			if scale < av {
				r := scale / av
				ssq = 1 + ssq*r*r
				scale = av
			} else {
				r := av / scale
				ssq += r * r
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormOne returns the 1-norm (max column absolute sum) of a.
func NormOne(a *Dense) float64 {
	var best float64
	for j := 0; j < a.Cols; j++ {
		var s float64
		for _, v := range a.Col(j) {
			s += math.Abs(v)
		}
		if s > best {
			best = s
		}
	}
	return best
}

// NormInf returns the infinity norm (max row absolute sum) of a.
func NormInf(a *Dense) float64 {
	sums := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i, v := range a.Col(j) {
			sums[i] += math.Abs(v)
		}
	}
	var best float64
	for _, s := range sums {
		if s > best {
			best = s
		}
	}
	return best
}

// NormMax returns the largest absolute element of a, or NaN when any
// element is NaN (a plain max would skip it and report a finite norm).
func NormMax(a *Dense) float64 {
	var best float64
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			if math.IsNaN(v) {
				return math.NaN()
			}
			if av := math.Abs(v); av > best {
				best = av
			}
		}
	}
	return best
}
