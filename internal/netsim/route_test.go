package netsim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"continuum/internal/sim"
)

// randomTopology builds a directed network over nv vertices. Only some
// vertices are endpoints; the rest are pure junctions. Links mix duplex
// pairs, one-way links, zero latencies, and a few repeated latency
// values so equal-distance ties occur. With a sparse draw some pairs
// stay unreachable.
func randomTopology(rng *rand.Rand, k *sim.Kernel, nv int) *Network {
	n := New(k, nv)
	lats := []float64{0, 0.001, 0.002, 0.003, 0.0125}
	for i := rng.Intn(3 * nv); i >= 0; i-- {
		a, b := rng.Intn(nv), rng.Intn(nv)
		if a == b {
			continue
		}
		lat := lats[rng.Intn(len(lats))]
		if rng.Intn(3) == 0 {
			lat = rng.Float64() * 0.05
		}
		capacity := []float64{1e6, 1e8, 1.25e9}[rng.Intn(3)] * (1 + rng.Float64())
		if rng.Intn(2) == 0 {
			n.AddDuplexLink(a, b, lat, capacity)
		} else {
			n.AddLink(a, b, lat, capacity)
		}
	}
	return n
}

// floydWarshall is an independent all-pairs latency oracle.
func floydWarshall(n *Network) [][]float64 {
	nv := n.NumNodes()
	d := make([][]float64, nv)
	for i := range d {
		d[i] = make([]float64, nv)
		for j := range d[i] {
			d[i][j] = math.Inf(1)
		}
		d[i][i] = 0
	}
	for _, l := range n.Links() {
		d[l.From][l.To] = min(d[l.From][l.To], l.Latency)
	}
	for m := 0; m < nv; m++ {
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				d[i][j] = min(d[i][j], d[i][m]+d[m][j])
			}
		}
	}
	return d
}

// checkRoutes asserts that every cached route query equals, bit for bit,
// the value recomputed from Path, and that Path is a shortest path.
func checkRoutes(t *testing.T, n *Network) {
	t.Helper()
	fw := floydWarshall(n)
	const size = 12345.0
	for a := 0; a < n.NumNodes(); a++ {
		mts, lats := n.MessageTimes(a, size, nil), n.MessageTimes(a, 0, nil)
		for b := 0; b < n.NumNodes(); b++ {
			path, err := n.Path(a, b)
			lat, bn := 0.0, math.Inf(1)
			if err != nil {
				lat, bn = math.Inf(1), 0
			}
			at := a
			for _, l := range path {
				if l.From != at {
					t.Fatalf("%d->%d: path not contiguous at link %d", a, b, l.ID)
				}
				at = l.To
				lat += l.Latency
				bn = min(bn, l.Capacity)
			}
			if err == nil && at != b {
				t.Fatalf("%d->%d: path ends at %d", a, b, at)
			}
			mt := lat
			if a != b && size > 0 && !math.IsInf(lat, 1) {
				mt += size / bn
			}
			if got := n.Latency(a, b); got != lat {
				t.Fatalf("%d->%d: Latency %v, path sum %v", a, b, got, lat)
			}
			if got := n.Bottleneck(a, b); got != bn {
				t.Fatalf("%d->%d: Bottleneck %v, path min %v", a, b, got, bn)
			}
			if got := n.MessageTime(a, b, size); got != mt {
				t.Fatalf("%d->%d: MessageTime %v, from path %v", a, b, got, mt)
			}
			if got := n.TransferTime(a, b, size); got != mt {
				t.Fatalf("%d->%d: TransferTime %v, from path %v", a, b, got, mt)
			}
			if got := n.MessageTime(a, b, 0); got != lat {
				t.Fatalf("%d->%d: zero-size MessageTime %v, path sum %v", a, b, got, lat)
			}
			if mts[b] != mt || lats[b] != lat {
				t.Fatalf("%d->%d: MessageTimes %v and %v (zero size), want %v and %v", a, b, mts[b], lats[b], mt, lat)
			}
			want := fw[a][b]
			if math.IsInf(want, 1) != math.IsInf(lat, 1) ||
				(!math.IsInf(want, 1) && math.Abs(lat-want) > 1e-12) {
				t.Fatalf("%d->%d: latency %v, oracle %v", a, b, lat, want)
			}
		}
	}
}

// checkMessageCharges asserts that Message adds size to BytesCarried on
// exactly the links of Path and fires after exactly MessageTime.
func checkMessageCharges(t *testing.T, rng *rand.Rand, n *Network) {
	t.Helper()
	k := n.Kernel()
	for i := 0; i < 20; i++ {
		a, b := rng.Intn(n.NumNodes()), rng.Intn(n.NumNodes())
		path, err := n.Path(a, b)
		if err != nil {
			continue
		}
		size := float64(1 + rng.Intn(1<<20))
		before := make([]float64, n.NumLinks())
		onPath := make([]bool, n.NumLinks())
		for _, l := range n.Links() {
			before[l.ID] = l.BytesCarried
		}
		for _, l := range path {
			onPath[l.ID] = true
		}
		start, want := k.Now(), n.MessageTime(a, b, size)
		fired := -1.0
		n.Message(a, b, size, func() { fired = k.Now() })
		for _, l := range n.Links() {
			charged := before[l.ID]
			if onPath[l.ID] {
				charged += size
			}
			if l.BytesCarried != charged {
				t.Fatalf("%d->%d: link %d (%d->%d) carried %v, want %v",
					a, b, l.ID, l.From, l.To, l.BytesCarried, charged)
			}
		}
		k.Run()
		if fired != start+want {
			t.Fatalf("%d->%d: message fired at %v, want %v", a, b, fired, start+want)
		}
	}
}

// TestRouteQueriesMatchPath is the differential property test of the
// route cache: over random directed topologies, and again after each kind
// of cache invalidation, every cached query equals its value recomputed
// from Path with ==.
func TestRouteQueriesMatchPath(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		n := randomTopology(rng, k, 2+rng.Intn(14))
		checkRoutes(t, n)
		checkMessageCharges(t, rng, n)

		if n.NumLinks() > 0 {
			l := n.Links()[rng.Intn(n.NumLinks())]
			n.SetLinkParams(l, rng.Float64()*0.02, 1e5+rng.Float64()*1e9)
			checkRoutes(t, n)
		}
		a, b := rng.Intn(n.NumNodes()), rng.Intn(n.NumNodes())
		if a != b {
			n.AddLink(a, b, 0, 1e7)
			checkRoutes(t, n)
		}
		j := n.AddNode()
		checkRoutes(t, n)
		n.AddDuplexLink(j, rng.Intn(j), 0.001, 1e9)
		checkRoutes(t, n)
		checkMessageCharges(t, rng, n)
	}
}

// TestSameNodeQueriesRangeCheck: the a == b shortcut must not skip the
// range check; an out-of-range vertex panics like it does for Path.
func TestSameNodeQueriesRangeCheck(t *testing.T) {
	k := sim.NewKernel()
	n, _ := Line(k, 3, 0.001, 1e9)
	cases := map[string]func(){
		"Path":         func() { n.Path(99, 99) },
		"Latency":      func() { n.Latency(99, 99) },
		"RTT":          func() { n.RTT(99, 99) },
		"Bottleneck":   func() { n.Bottleneck(99, 99) },
		"MessageTime":  func() { n.MessageTime(99, 99, 1) },
		"TransferTime": func() { n.TransferTime(-1, -1, 1) },
		"Message":      func() { n.Message(99, 99, 1, func() {}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an out-of-range vertex did not panic", name)
				}
			}()
			fn()
		})
	}
	if n.Messages != 0 || k.Pending() != 0 {
		t.Fatalf("out-of-range Message counted %d sends, left %d events", n.Messages, k.Pending())
	}
}

// refHeap is container/heap over nodeDist, the ordering nodeHeap must
// reproduce.
type refHeap []nodeDist

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestNodeHeapMatchesContainerHeap: with heavy distance ties, the typed
// heap pops the same ids in the same order as container/heap, so
// Dijkstra settles tied vertices, and picks tree links, as before.
func TestNodeHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var got nodeHeap
	ref := &refHeap{}
	for i := 0; i < 20000; i++ {
		if ref.Len() == 0 || rng.Intn(3) > 0 {
			x := nodeDist{id: i, d: float64(rng.Intn(8))}
			got.push(x)
			heap.Push(ref, x)
			continue
		}
		if g, w := got.pop(), heap.Pop(ref).(nodeDist); g != w {
			t.Fatalf("step %d: popped %+v, container/heap popped %+v", i, g, w)
		}
	}
}

// TestRouteQueriesAllocationFree gates the route cache: once a source's
// tree exists, queries from it and Message with a static callback
// allocate nothing, and neither does refilling that tree after a link
// retune.
func TestRouteQueriesAllocationFree(t *testing.T) {
	k := sim.NewKernel()
	n, _, leaves := Star(k, StarSpec{Leaves: 64, LeafLatency: 0.001, LeafCapacity: 1e9})
	a, b := leaves[3], leaves[40]
	l := n.Links()[0]
	n.Latency(a, b) // build the tree from a
	noop := func() {}
	n.Message(a, b, 1e3, noop)
	k.Run()
	cases := map[string]func(){
		"Latency":     func() { n.Latency(a, b) },
		"Bottleneck":  func() { n.Bottleneck(a, b) },
		"MessageTime": func() { n.MessageTime(a, b, 1e3) },
		"Message": func() {
			n.Message(a, b, 1e3, noop)
			k.Run()
		},
		"Latency after SetLinkParams": func() {
			n.SetLinkParams(l, 0.002, 1e9)
			n.Latency(a, b)
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on a warm cache, want 0", name, allocs)
		}
	}
}

// TestReach: forward and reverse reachability over one-way links and a
// junction vertex, without filling the route cache.
func TestReach(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 5)
	n.AddLink(0, 1, 0.001, 1e9)       // one-way 0->1
	n.AddDuplexLink(1, 2, 0, 1e9)     // 2 is a junction
	n.AddDuplexLink(2, 3, 0.002, 1e9) // 3 behind the junction
	// 4 is isolated.
	out, in := n.Reach(1)
	wantOut := []bool{false, true, true, true, false}
	wantIn := []bool{true, true, true, true, false}
	for v := range wantOut {
		if out[v] != wantOut[v] || in[v] != wantIn[v] {
			t.Fatalf("vertex %d: out %v in %v, want out %v in %v", v, out[v], in[v], wantOut[v], wantIn[v])
		}
	}
	for src, tr := range n.spt {
		if tr != nil {
			t.Fatalf("Reach built a shortest-path tree from %d", src)
		}
	}
}
