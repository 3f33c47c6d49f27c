// Package netsim is the network substrate of the continuum simulator: a
// directed topology of links with propagation latency (speed-of-light
// delays) and finite bandwidth, shortest-path routing, and flow-level
// transfer simulation with max-min fair bandwidth sharing (the standard
// flow-level model used by SimGrid-class simulators).
//
// Two transfer APIs are offered:
//
//   - Transfer: a long-lived flow that contends with other flows for link
//     bandwidth; rates are recomputed with progressive filling whenever any
//     flow starts or ends.
//   - Message: an analytic, uncontended small-message send (propagation +
//     size/bottleneck); appropriate for telemetry and control traffic whose
//     bandwidth footprint is negligible.
package netsim

import (
	"fmt"
	"math"

	"continuum/internal/sim"
)

// SpeedOfLightFiber is the propagation speed in optical fiber, km/s
// (roughly 2/3 of c in vacuum).
const SpeedOfLightFiber = 200000.0

// PropagationDelay returns the one-way fiber propagation delay for a
// distance in kilometers.
func PropagationDelay(km float64) float64 {
	return km / SpeedOfLightFiber
}

// Link is a directed edge with propagation latency and capacity.
type Link struct {
	ID       int
	From, To int
	Latency  float64 // one-way propagation, seconds
	Capacity float64 // bytes/second

	flows map[*Flow]struct{}

	// BytesCarried accumulates delivered bytes for accounting (egress
	// billing, WAN savings experiments).
	BytesCarried float64
}

// Network is a topology bound to a simulation kernel.
type Network struct {
	k     *sim.Kernel
	adj   [][]*Link
	links []*Link

	active map[*Flow]struct{}

	// spt caches the shortest-path tree per source vertex (nil until the
	// first query from it). A tree built before the latest topology change
	// is stale and is refilled in place on its next query. Routing is
	// latency-static between changes, so caching is exact.
	spt []*spTree
	// version counts topology changes: vertices, links and link
	// parameters. A tree is current when its version equals this one.
	version uint64
	// pq is Dijkstra's heap, kept between runs so trees after the first
	// reuse its backing array.
	pq nodeHeap

	// Transfers counts completed Transfer flows; Messages counts Message
	// sends.
	Transfers, Messages int64
}

// spTree is the latency-shortest-path tree from one source. For each
// vertex v it holds the path latency dist[v] (+Inf if unreachable), the
// minimum link capacity bn[v] along the tree path (+Inf at the source, 0
// if unreachable) and the incoming tree link prev[v], so every route
// query from the source is an array read.
type spTree struct {
	dist    []float64
	bn      []float64
	prev    []*Link
	version uint64 // Network.version the tree was filled at
}

// New creates a network with n nodes and no links.
func New(k *sim.Kernel, n int) *Network {
	if n < 0 {
		panic("netsim: negative node count")
	}
	return &Network{
		k:      k,
		adj:    make([][]*Link, n),
		active: make(map[*Flow]struct{}),
		spt:    make([]*spTree, n),
	}
}

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// NumNodes returns the number of topology vertices.
func (n *Network) NumNodes() int { return len(n.adj) }

// Version identifies the routing state: it changes whenever a vertex or
// link is added or a link is retuned, and only then. A caller holding
// values derived from route queries (latencies, bottlenecks, message
// times) can keep them while Version is unchanged.
func (n *Network) Version() uint64 { return n.version }

// NumLinks returns the number of directed links.
func (n *Network) NumLinks() int { return len(n.links) }

// AddNode appends a vertex and returns its id.
func (n *Network) AddNode() int {
	n.adj = append(n.adj, nil)
	n.spt = append(n.spt, nil)
	n.version++
	return len(n.adj) - 1
}

// AddLink adds a directed link and returns it. Latency must be >= 0 and
// capacity > 0.
func (n *Network) AddLink(from, to int, latency, capacity float64) *Link {
	n.checkNode(from)
	n.checkNode(to)
	if latency < 0 {
		panic(fmt.Sprintf("netsim: negative latency %v", latency))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: capacity %v <= 0", capacity))
	}
	l := &Link{
		ID: len(n.links), From: from, To: to,
		Latency: latency, Capacity: capacity,
		flows: make(map[*Flow]struct{}),
	}
	n.links = append(n.links, l)
	n.adj[from] = append(n.adj[from], l)
	n.version++
	return l
}

// AddDuplexLink adds a pair of directed links (one each way) with the same
// latency and per-direction capacity, returning both.
func (n *Network) AddDuplexLink(a, b int, latency, capacity float64) (ab, ba *Link) {
	return n.AddLink(a, b, latency, capacity), n.AddLink(b, a, latency, capacity)
}

// Links returns all directed links (shared slice; do not mutate).
func (n *Network) Links() []*Link { return n.links }

// SetLinkParams retunes a link's latency and capacity mid-simulation
// (scenario link-degradation events). Routing is latency-based, so every
// cached shortest-path tree goes stale and is refilled in place on its
// next query; flows already crossing the link keep their negotiated
// rates until the next flow event recomputes them, matching how a real
// router change affects in-flight traffic.
func (n *Network) SetLinkParams(l *Link, latency, capacity float64) {
	if latency < 0 {
		panic(fmt.Sprintf("netsim: negative latency %v", latency))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: capacity %v <= 0", capacity))
	}
	l.Latency = latency
	l.Capacity = capacity
	n.version++
}

func (n *Network) checkNode(id int) {
	if id < 0 || id >= len(n.adj) {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", id, len(n.adj)))
	}
}

// checkPair range-checks both ends of a route query.
func (n *Network) checkPair(a, b int) {
	n.checkNode(a)
	n.checkNode(b)
}

// tree returns the cached shortest-path tree rooted at src, running
// Dijkstra on the first query from src after a topology change. Every
// later query from src is an array read.
func (n *Network) tree(src int) *spTree {
	t := n.spt[src]
	if t == nil {
		t = &spTree{}
		n.spt[src] = t
	}
	if t.dist == nil || t.version != n.version {
		n.dijkstra(src, t)
	}
	return t
}

func unreachable(a, b int) error {
	return fmt.Errorf("netsim: node %d unreachable from %d", b, a)
}

// Path returns the minimum-latency link path from a to b, or an error if b
// is unreachable. Same-node paths are empty and nil error.
func (n *Network) Path(a, b int) ([]*Link, error) {
	n.checkPair(a, b)
	if a == b {
		return nil, nil
	}
	t := n.tree(a)
	if math.IsInf(t.dist[b], 1) {
		return nil, unreachable(a, b)
	}
	var path []*Link
	for at := b; at != a; {
		l := t.prev[at]
		path = append(path, l)
		at = l.From
	}
	// Reverse into forward order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// Latency returns the one-way minimum propagation latency from a to b, or
// +Inf if unreachable.
func (n *Network) Latency(a, b int) float64 {
	n.checkPair(a, b)
	if a == b {
		return 0
	}
	return n.tree(a).dist[b]
}

// RTT returns the round-trip latency between a and b.
func (n *Network) RTT(a, b int) float64 {
	return n.Latency(a, b) + n.Latency(b, a)
}

// Bottleneck returns the minimum link capacity along the minimum-latency
// path from a to b, +Inf for a == b, and 0 if unreachable.
func (n *Network) Bottleneck(a, b int) float64 {
	n.checkPair(a, b)
	if a == b {
		return math.Inf(1)
	}
	return n.tree(a).bn[b]
}

func pathLatency(path []*Link) float64 {
	sum := 0.0
	for _, l := range path {
		sum += l.Latency
	}
	return sum
}

// dijkstra fills t with the latency-shortest-path tree from src, reusing
// its arrays unless the vertex count changed. A vertex's incoming tree
// link is final once the vertex settles, and that link's From settled
// earlier, so the bottleneck is filled in settle order. Weights are
// non-negative, so dist[v] is the same left-to-right sum pathLatency
// takes over Path(src, v), bit for bit.
func (n *Network) dijkstra(src int, t *spTree) {
	if len(t.dist) != len(n.adj) {
		t.dist = make([]float64, len(n.adj))
		t.bn = make([]float64, len(n.adj))
		t.prev = make([]*Link, len(n.adj))
	} else {
		clear(t.bn)
		clear(t.prev)
	}
	t.version = n.version
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
	}
	t.dist[src] = 0
	t.bn[src] = math.Inf(1)
	pq := n.pq[:0]
	pq.push(nodeDist{src, 0})
	for len(pq) > 0 {
		it := pq.pop()
		if it.d > t.dist[it.id] {
			continue
		}
		if l := t.prev[it.id]; l != nil {
			t.bn[it.id] = min(t.bn[l.From], l.Capacity)
		}
		for _, l := range n.adj[it.id] {
			nd := it.d + l.Latency
			if nd < t.dist[l.To] {
				t.dist[l.To] = nd
				t.prev[l.To] = l
				pq.push(nodeDist{l.To, nd})
			}
		}
	}
	n.pq = pq
}

type nodeDist struct {
	id int
	d  float64
}

// nodeHeap is a binary min-heap on d. push and pop sift exactly as
// container/heap does, so equal-distance vertices settle in the same
// order and ties resolve to the same tree links.
type nodeHeap []nodeDist

func (h *nodeHeap) push(x nodeDist) {
	q := append(*h, x)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *nodeHeap) pop() nodeDist {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].d < q[j].d {
			j = j2
		}
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// Reach reports, for every vertex, whether src reaches it (out) and
// whether it reaches src (in): one forward and one reverse traversal,
// linear in the topology. It ignores latency and leaves the route cache
// untouched, so a connectivity check costs no shortest-path trees.
func (n *Network) Reach(src int) (out, in []bool) {
	n.checkNode(src)
	fwd := make([][]int, len(n.adj))
	rev := make([][]int, len(n.adj))
	for _, l := range n.links {
		fwd[l.From] = append(fwd[l.From], l.To)
		rev[l.To] = append(rev[l.To], l.From)
	}
	return flood(src, fwd), flood(src, rev)
}

// flood marks every vertex reachable from src over adj.
func flood(src int, adj [][]int) []bool {
	seen := make([]bool, len(adj))
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Message schedules fn after the uncontended delivery time of a size-byte
// message from a to b: path propagation plus size/bottleneck transmission.
// It charges size to BytesCarried on every link of Path(a, b), walking
// the cached tree rather than building the path. It panics if b is
// unreachable (callers route over connected topologies).
func (n *Network) Message(a, b int, size float64, fn func()) {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %v", size))
	}
	n.checkPair(a, b)
	n.Messages++
	if a == b {
		n.k.After(0, fn)
		return
	}
	t := n.tree(a)
	if math.IsInf(t.dist[b], 1) {
		panic(unreachable(a, b))
	}
	for at := b; at != a; {
		l := t.prev[at]
		l.BytesCarried += size
		at = l.From
	}
	n.k.After(t.messageTime(b, size), fn)
}

// MessageTime returns the uncontended delivery time Message would use,
// without sending anything. It returns +Inf if unreachable.
func (n *Network) MessageTime(a, b int, size float64) float64 {
	n.checkPair(a, b)
	if a == b {
		return 0
	}
	return n.tree(a).messageTime(b, size)
}

// MessageTimes appends to dst[:0] the MessageTime of a size-byte message
// from src to every vertex, indexed by vertex, and returns it: one tree
// lookup for a caller that needs them all.
func (n *Network) MessageTimes(src int, size float64, dst []float64) []float64 {
	n.checkNode(src)
	t := n.tree(src)
	dst = dst[:0]
	for v := range t.dist {
		dst = append(dst, t.messageTime(v, size))
	}
	dst[src] = 0 // MessageTime's same-vertex case
	return dst
}

// messageTime is propagation plus size/bottleneck to b, +Inf if b is
// unreachable from the tree's source.
func (t *spTree) messageTime(b int, size float64) float64 {
	d := t.dist[b]
	if size > 0 && !math.IsInf(d, 1) {
		d += size / t.bn[b]
	}
	return d
}
