package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},     // clamps to the smallest sample
		{0.1, 1},   // ceil(1.0)-1 = 0
		{0.11, 2},  // ceil(1.1)-1 = 1
		{0.5, 5},   // lower middle of an even count
		{0.9, 9},   // exactly 9 of 10 at or below
		{0.99, 10}, // ceil(9.9)-1 = 9: the largest
		{1, 10},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
}

func TestPercentileP99HasTenBeyondAtThousand(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	p := percentile(xs, 0.99)
	beyond := 0
	for _, x := range xs {
		if x > p {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("p99 of 1000 samples leaves %d beyond it, want 10", beyond)
	}
}

func TestMedianDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestQuietQuantile(t *testing.T) {
	// Twenty chunks of five; chunk k holds k*10+1 .. k*10+5, except
	// chunk 0, which a stall inflated to 1000. The quietest tenth is two
	// chunks, but at least three are pooled: chunks 1, 2 and 3, whose
	// maximum is 35. The stalled chunk does not set the result, and the
	// trailing partial chunk is ignored.
	var xs []float64
	for k := 0; k < 20; k++ {
		for i := 1; i <= 5; i++ {
			xs = append(xs, float64(k*10+i))
		}
	}
	xs[4] = 1000
	xs = append(xs, 0)
	if got := quietQuantile(xs, 5, 1, 3); got != 35 {
		t.Fatalf("quietQuantile max = %v, want 35", got)
	}
	// Ranked by their medians, the stalled chunk (median 3) is among the
	// quietest: the pool is chunks 0, 1 and 2, and its median (nearest
	// rank 8 of 15) is 14. Only the stall's one sample is out of reach.
	if got := quietQuantile(xs, 5, 0.5, 3); got != 14 {
		t.Fatalf("quietQuantile median = %v, want 14", got)
	}
	// minChunks above the chunk count pools everything.
	if got := quietQuantile(xs[:100], 5, 1, 50); got != 1000 {
		t.Fatalf("quietQuantile over all chunks = %v, want 1000", got)
	}
	// Fewer samples than one chunk: the whole input is the chunk.
	if got := quietQuantile([]float64{5, 1, 3}, 4, 0.5, 1); got != 3 {
		t.Fatalf("short quietQuantile = %v, want 3", got)
	}
	if got := quietQuantile(nil, 4, 0.5, 1); got != 0 {
		t.Fatalf("empty quietQuantile = %v, want 0", got)
	}
}
