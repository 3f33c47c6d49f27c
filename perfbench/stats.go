package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the smallest sample with at least q·n samples at or below it.
// It never interpolates, so every reported percentile is a value that was
// actually measured. An empty input yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank 0.5-quantile of xs (the lower middle for an
// even count).
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.5)
}

// quietShare is the share of a run's chunks that quietQuantile pools:
// its quietest tenth.
const quietShare = 0.1

// quietQuantile is the q-quantile of a run's quiet stretches. It cuts xs
// (in arrival order) into consecutive chunks of size samples, ranks the
// chunks by their own q-quantile, pools the quietShare of them that rank
// lowest (at least minChunks, all of them when there are fewer), and
// returns the pool's q-quantile. A trailing partial chunk is dropped;
// with no full chunk the whole input is one chunk.
//
// On a shared host, co-tenants steal the CPU in bursts lasting from
// milliseconds to minutes, and every stall of the process delays every
// request in flight, so a percentile over the whole run follows the
// host rather than the code. The quietest stretches still carry the
// code's own per-request cost and queueing, which recur in every chunk.
// What they leave out is the tail that process-wide stalls add,
// whatever causes them; the run-wide percentiles are reported beside
// them, without a bound.
func quietQuantile(xs []float64, size int, q float64, minChunks int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var chunks [][]float64
	for i := 0; i+size <= len(xs); i += size {
		chunks = append(chunks, sortedCopy(xs[i:i+size]))
	}
	if len(chunks) == 0 {
		return percentile(sortedCopy(xs), q)
	}
	sort.SliceStable(chunks, func(i, j int) bool { return percentile(chunks[i], q) < percentile(chunks[j], q) })
	k := min(len(chunks), max(minChunks, int(math.Ceil(quietShare*float64(len(chunks))))))
	var pool []float64
	for _, c := range chunks[:k] {
		pool = append(pool, c...)
	}
	return percentile(sortedCopy(pool), q)
}
