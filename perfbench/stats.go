package main

import "sort"

// summary is a sample's median, quartiles and count.
type summary struct {
	median, q1, q3 float64
	n              int
}

// summarize computes quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads perfbench prints match the ones computed from its results.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{s[0], s[0], s[0], 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{median: q(2), q1: q(1), q3: q(3), n: n}
}
