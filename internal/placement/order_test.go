package placement

import (
	"fmt"
	"testing"

	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// scanGreedy is the reference GreedyLatency answers to: argmin of
// EstimateLatency (no fabric) over env's eligible nodes in Nodes order,
// nil when none is eligible.
func scanGreedy(env *Env, req Request) *node.Node {
	var cands []*node.Node
	for _, n := range env.Nodes {
		if env.Eligible == nil || env.Eligible(n) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	plain := &Env{Net: env.Net}
	return argmin(cands, func(n *node.Node) float64 { return EstimateLatency(plain, req, n) })
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzShapes are the task shapes queries draw from: empty, scalar,
// tensor on a GPU, tensor without a device, and zero work (so a node
// with no flops scores NaN).
var fuzzShapes = []task.Task{
	{Name: "empty"},
	{Name: "scalar", ScalarWork: 5e8, Inputs: []task.DataRef{{Name: "in", Bytes: 1024}}},
	{Name: "big", ScalarWork: 4e10, Inputs: []task.DataRef{{Name: "in", Bytes: 1e7}}},
	{Name: "gpu", ScalarWork: 1e8, TensorWork: 1e11, Accel: node.GPU, Inputs: []task.DataRef{{Name: "in", Bytes: 1e5}}},
	{Name: "tpu", TensorWork: 1e10, Accel: node.TPU},
	{Name: "zero", Inputs: []task.DataRef{{Name: "in", Bytes: 0}}},
}

// fuzzLatencies are few and repeat, so bounds tie and the (ID, index)
// tie-break decides.
var fuzzLatencies = []float64{0, 0.001, 0.002, 0.002, 0.005, 0.02}

// FuzzGreedyLatencySelect is the differential check on GreedyLatency's
// bounded walk. The first two bytes seed the fleet: a random directed
// topology (unreachable nodes and junction vertices included), or a wide
// uniform star whose walks outrun the first prefix; node specs with no
// flops (exec +Inf, or NaN for zero work) or no cores; random occupancy
// and a shuffled Nodes order. The remaining bytes drive operations:
// queries from random origins with random task shapes and eligibility
// masks, link retunes, new vertices and nodes, load changes and new
// candidate slices. Every selection must return the same *node.Node as
// scanGreedy.
func FuzzGreedyLatencySelect(f *testing.F) {
	f.Add([]byte{5, 1, 0, 1, 2, 3, 0, 4, 5, 1, 2, 0, 0, 3, 1, 0, 2, 1, 0, 4, 5, 6, 7})
	f.Add([]byte{4, 0, 1, 3, 3, 1, 0, 9, 9, 6, 1, 2, 3, 4, 5, 6, 0, 0, 1, 0, 1, 2, 0, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		rng := workload.NewRNG(uint64(in.next()) | uint64(in.next())<<8)
		k := sim.NewKernel()
		nv := 2 + rng.Intn(24)
		star := rng.Intn(4) == 0
		broken := rng.Intn(3) == 0 // some nodes have no flops or no cores
		if star {
			nv += 40 + rng.Intn(200)
		}
		net := netsim.New(k, nv)
		latency := func() float64 { return fuzzLatencies[rng.Intn(len(fuzzLatencies))] }
		var links []*netsim.Link
		if star {
			lat := latency()
			for v := 1; v < nv; v++ {
				ab, ba := net.AddDuplexLink(0, v, lat, 1e9)
				links = append(links, ab, ba)
			}
		}
		for i, m := 0, rng.Intn(3*nv); i < m; i++ {
			if a, b := rng.Intn(nv), rng.Intn(nv); a != b {
				links = append(links, net.AddLink(a, b, latency(), float64(1+rng.Intn(4))*1e8))
			}
		}

		var nodes []*node.Node
		addNode := func(v int) {
			if rng.Intn(6) == 0 {
				return // a junction vertex with no compute
			}
			spec := node.Spec{
				Name: fmt.Sprintf("n%d", v), Class: node.Class(rng.Intn(6)),
				Cores: 1 + rng.Intn(4), CoreFlops: float64(1+rng.Intn(3)) * 1e9, MemBytes: 1 << 30,
			}
			if star && rng.Intn(2) == 0 {
				spec.Cores, spec.CoreFlops = 2, 2e9 // uniform, so many bounds tie
			}
			if rng.Intn(4) == 0 {
				spec.Accel = node.Accelerator{Kind: node.GPU, Count: 1, Flops: 1e12}
			}
			n := node.New(k, v, spec)
			if broken && rng.Intn(8) == 0 {
				if rng.Intn(2) == 0 {
					n.CoreFlops = 0
				} else {
					n.Spec.Cores = 0
				}
			}
			for j, m := 0, rng.Intn(3*spec.Cores+1); j < m; j++ {
				n.Cores.Acquire(1, func() {}) // past capacity, requests queue
			}
			nodes = append(nodes, n)
		}
		for v := 0; v < nv; v++ {
			addNode(v)
		}
		for i := range nodes {
			j := rng.Intn(len(nodes))
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}

		var mask uint64
		env := &Env{Net: net, Nodes: nodes}
		pol := GreedyLatency{}
		for op := 0; op < 64 && len(in) > 0; op++ {
			switch in.next() % 8 {
			case 0, 1, 2, 3:
				shape := fuzzShapes[in.next()%len(fuzzShapes)]
				req := Request{Task: &shape, Origin: in.next() % net.NumNodes()}
				if in.next()%3 == 0 {
					env.Eligible = nil
				} else {
					mask = uint64(in.next()) | uint64(in.next())<<8 | uint64(in.next())<<16
					env.Eligible = func(n *node.Node) bool { return mask>>(uint(n.ID)%24)&1 == 1 }
				}
				got, want := pol.Select(env, req), scanGreedy(env, req)
				if got != want {
					t.Fatalf("op %d: Select(origin %d, %s) = %v, scan = %v", op, req.Origin, shape.Name, name(got), name(want))
				}
			case 4:
				if len(links) > 0 {
					l := links[in.next()%len(links)]
					net.SetLinkParams(l, fuzzLatencies[in.next()%len(fuzzLatencies)], float64(1+in.next()%8)*1e8)
				}
			case 5:
				v := net.AddNode()
				links = append(links, net.AddLink(v, in.next()%v, 0.001, 1e9))
				if in.next()%2 == 0 {
					links = append(links, net.AddLink(in.next()%v, v, 0.003, 1e9))
				}
				addNode(v)
				env.Nodes = nodes
			case 6:
				if len(nodes) > 0 {
					n := nodes[in.next()%len(nodes)]
					if n.Cores.InUse() > 0 && in.next()%2 == 0 {
						n.Cores.Release(1)
					} else {
						n.Cores.Acquire(1, func() {})
					}
				}
			case 7:
				if len(nodes) > 1 {
					i := in.next() % len(nodes)
					nodes = append(append([]*node.Node(nil), nodes[:i]...), nodes[i+1:]...)
					env.Nodes = nodes
				}
			}
		}
	})
}

func name(n *node.Node) string {
	if n == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s(id %d)", n.Name, n.ID)
}

// starEnv builds a star of leaves identical gateways around a hub
// gateway, with every node's cores held busy by load requests (queued
// past capacity).
func starEnv(leaves, load int) (*Env, []*netsim.Link) {
	k := sim.NewKernel()
	net, hub, ls := netsim.Star(k, netsim.StarSpec{Leaves: leaves, LeafLatency: 0.002, LeafCapacity: 1e8})
	env := &Env{Net: net}
	for _, v := range append([]int{hub}, ls...) {
		n := node.New(k, v, node.Spec{
			Name: fmt.Sprintf("n%d", v), Class: node.Gateway, Cores: 4, CoreFlops: 2.5e9, MemBytes: 1 << 30,
		})
		for i := 0; i < load; i++ {
			n.Cores.Acquire(1, func() {})
		}
		env.Nodes = append(env.Nodes, n)
	}
	return env, net.Links()
}

// TestGreedyLatencyPrefixGrows: on a uniformly loaded fleet every bound
// is below the best score, so the walk must outrun the first prefix; it
// doubles the prefix and still returns the scan's node.
func TestGreedyLatencyPrefixGrows(t *testing.T) {
	env, _ := starEnv(300, 6)
	idle := env.Nodes[len(env.Nodes)-1]
	for idle.Cores.InUse() > 0 {
		idle.Cores.Release(1) // releases grant queued requests first
	}
	req := Request{Task: &task.Task{Name: "t", ScalarWork: 5e8}, Origin: env.Nodes[1].ID}
	got := GreedyLatency{}.Select(env, req)
	if want := scanGreedy(env, req); got != want {
		t.Fatalf("Select = %v, scan = %v", name(got), name(want))
	}
	for _, o := range env.orders.orders {
		if len(o.ents) <= firstPrefix {
			t.Fatalf("prefix has %d entries, want it grown past %d", len(o.ents), firstPrefix)
		}
	}
}

// TestGreedyLatencyWalkIsSublinear gates the point of the walk: on an
// idle 1,000-node fleet a selection looks at a handful of nodes, not all
// of them.
func TestGreedyLatencyWalkIsSublinear(t *testing.T) {
	env, _ := starEnv(999, 0)
	visited := 0
	env.Eligible = func(*node.Node) bool { visited++; return true }
	req := Request{Task: &task.Task{Name: "t", ScalarWork: 5e8}, Origin: env.Nodes[7].ID}
	GreedyLatency{}.Select(env, req) // fills the order
	visited = 0
	got := GreedyLatency{}.Select(env, req)
	if visited > 8 {
		t.Fatalf("walk visited %d of %d nodes, want at most 8", visited, len(env.Nodes))
	}
	if want := scanGreedy(env, req); got != want {
		t.Fatalf("Select = %v, scan = %v", name(got), name(want))
	}
}

// TestPoliciesSelectOnlyEligible: every online policy chooses among
// Candidates only, and returns nil when no node is eligible.
func TestPoliciesSelectOnlyEligible(t *testing.T) {
	_, env := testEnv(t)
	req := Request{Task: smallTask(), Origin: 0}
	pols := []Policy{
		EdgeOnly{}, CloudOnly{}, Random{RNG: workload.NewRNG(1)}, &RoundRobin{},
		GreedyLatency{}, DataAware{}, GreedyEnergy{}, GreedyCost{},
		MultiObjective{W: Weights{Latency: 1, Energy: 1}}, NewAdaptive(1),
	}
	for _, p := range pols {
		banned := p.Select(env, req)
		env.Eligible = func(n *node.Node) bool { return n != banned }
		for i := 0; i < 5; i++ {
			if got := p.Select(env, req); got == nil || got == banned {
				t.Fatalf("%s: chose %v with %s ineligible", p.Name(), name(got), banned.Name)
			}
		}
		env.Eligible = func(*node.Node) bool { return false }
		if got := p.Select(env, req); got != nil {
			t.Fatalf("%s: chose %s with no eligible node", p.Name(), got.Name)
		}
		env.Eligible = nil
	}
}

// TestGreedyLatencyCacheBounded: one-off task shapes stop entering the
// cache once it holds minOrders keys, and selections past that point
// take the scan and still agree with it.
func TestGreedyLatencyCacheBounded(t *testing.T) {
	_, env := testEnv(t)
	for i := 0; i < 3*minOrders; i++ {
		req := Request{Task: &task.Task{Name: "t", ScalarWork: float64(1+i) * 1e7}, Origin: i % 3}
		if got, want := (GreedyLatency{}).Select(env, req), scanGreedy(env, req); got != want {
			t.Fatalf("shape %d: Select = %v, scan = %v", i, name(got), name(want))
		}
	}
	if n := len(env.orders.orders); n != minOrders {
		t.Fatalf("cache holds %d keys, want %d", n, minOrders)
	}
}

// TestGreedyLatencyFollowsRetune: a retune that makes a far node near
// must reach the cached bounds, or the walk would prune that node on its
// stale, too-high bound.
func TestGreedyLatencyFollowsRetune(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, 3)
	net.AddDuplexLink(0, 1, 0.010, 1e9)
	slow, _ := net.AddDuplexLink(0, 2, 0.050, 1e9)
	spec := node.Spec{Name: "n", Class: node.Fog, Cores: 1, CoreFlops: 1e9, MemBytes: 1 << 30}
	a, b := node.New(k, 1, spec), node.New(k, 2, spec)
	env := &Env{Net: net, Nodes: []*node.Node{a, b}}
	req := Request{Task: &task.Task{Name: "ping"}, Origin: 0}
	if got := (GreedyLatency{}).Select(env, req); got != a {
		t.Fatalf("before the retune: chose %v, want the 10ms node", name(got))
	}
	net.SetLinkParams(slow, 0.001, 1e9)
	if got := (GreedyLatency{}).Select(env, req); got != b {
		t.Fatalf("after the retune: chose %v, want the now 1ms node", name(got))
	}
}
