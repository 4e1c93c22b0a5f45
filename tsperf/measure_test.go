package main

import (
	"math/rand"
	"sort"
	"testing"
)

// refPercentile is the definition percentile implements, computed the
// slow way: the smallest sample x with at least perMille/1000 of the
// samples at or below it.
func refPercentile(samples []int64, perMille int) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for _, x := range s {
		atOrBelow := 0
		for _, v := range s {
			if v <= x {
				atOrBelow++
			}
		}
		if atOrBelow*1000 >= perMille*len(s) {
			return x
		}
	}
	return 0
}

func TestPercentileNearestRank(t *testing.T) {
	cases := map[string][]int64{
		"n=1":       {42},
		"n=10":      {10, 1, 9, 2, 8, 3, 7, 4, 6, 5},
		"ties":      {5, 5, 5, 1, 1, 9, 9, 9, 9, 5, 5},
		"all equal": {7, 7, 7, 7},
		"n=2":       {3, 1},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		s := make([]int64, 1+rng.Intn(300))
		for j := range s {
			s[j] = int64(rng.Intn(50)) // many ties
		}
		cases["random"+string(rune('a'+i))] = s
	}
	for name, s := range cases {
		sorted := sortedCopy(s)
		for _, pm := range []int{1, 100, 250, p50, 750, 900, p99, p999, 1000} {
			if got, want := percentile(sorted, pm), refPercentile(s, pm); got != want {
				t.Errorf("%s: percentile(%d‰) = %d, reference %d", name, pm, got, want)
			}
		}
	}
	if got := percentile(nil, p50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	// The exact values the definition gives on 1..10.
	ten := sortedCopy(cases["n=10"])
	for pm, want := range map[int]int64{p50: 5, p99: 10, 100: 1, 101: 2} {
		if got := percentile(ten, pm); got != want {
			t.Errorf("1..10: percentile(%d‰) = %d, want %d", pm, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1}, 2.5}, {[]float64{5, 1, 3}, 3},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
