package placement

import (
	"math"

	"continuum/internal/netsim"
	"continuum/internal/node"
)

// GreedyLatency's walk. Every node has a load-free lower bound on its
// score, bound(n) = move(origin, n) + exec(n): EstimateLatency at zero
// backlog (see there for why score >= bound bit for bit). The bound
// depends only on the network's routes, the node's spec and the request's
// (origin, input bytes, work, accelerator kind), so it is computed once
// per such key and network version and kept as a prefix of the nodes in
// (bound, ID, index) order.
//
// A selection walks that order, skips ineligible nodes, scores the rest
// with EstimateLatency's terms and stops at the first bound above the best
// score so far: every node after it scores strictly worse. Ties are broken
// on (ID, index), so the result is the lexicographic (score, ID, index)
// minimum, which is exactly what argmin returns over the eligible nodes in
// Nodes order when no score is NaN. Scores cannot be NaN when every bound
// is finite, every exec is >= 0 and every node has a core; a key for
// which that fails takes the plain scan instead, NaN quirks included.
//
// The prefix starts at firstPrefix entries and doubles whenever a walk
// runs off its end, so its length follows the deepest walk the key has
// needed and a walk never gives up on a proof. Filling a prefix costs one
// pass over the nodes, so a version bump costs each key one pass, not one
// per dispatch.

// firstPrefix is the length of a key's first prefix. In the 1,000-node
// stress scenario the deepest walk visits 69 nodes, so each key extends
// once, to 128, and later network versions refill at that length.
const firstPrefix = 64

// minOrders is the number of keys the cache always admits; beyond
// max(minOrders, len(Nodes)) new keys take the plain scan, so one-off task
// shapes cannot grow the cache without bound.
const minOrders = 64

// orderKey identifies the requests that share every node's bound. Work
// and bytes are keyed by their bits, so each key has one exact value.
type orderKey struct {
	origin                  int
	inBytes, scalar, tensor uint64
	accel                   node.AccelKind
}

// boundEntry is one node's bound, ID and index in Env.Nodes.
type boundEntry struct {
	bound   float64
	id, idx int
}

// after is the order's strict comparison: bound, then node ID, then index.
func (a boundEntry) after(b boundEntry) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.id != b.id {
		return a.id > b.id
	}
	return a.idx > b.idx
}

// boundOrder is one key's cached order.
type boundOrder struct {
	gen uint64 // orderCache.gen it was filled at
	// exact reports that the walk applies: every bound finite, every
	// exec >= 0 and every node with at least one core.
	exact bool
	ents  []boundEntry // the first len(ents) nodes in (bound, ID, index) order
}

// orderCache holds an Env's orders. They are valid for one network, one
// network version and one Nodes slice; a change to any of them bumps gen,
// and each order refills in place on its next use.
type orderCache struct {
	net     *netsim.Network
	version uint64
	nodes   []*node.Node
	gen     uint64
	orders  map[orderKey]*boundOrder
	moves   []float64 // MessageTimes scratch for fill
}

// selectGreedy returns GreedyLatency's choice: the walk when the key's
// order is exact, else the plain scan.
func (c *orderCache) selectGreedy(env *Env, req Request) *node.Node {
	ib := inputBytes(req.Task)
	score := func(n *node.Node) float64 {
		return completion(env.Net.MessageTime(req.Origin, n.ID, ib), req.Task, n)
	}
	o := c.lookup(env, req, ib)
	if o == nil || !o.exact {
		return lowest(env.Candidates(), score)
	}
	var best *node.Node
	bestIdx, bestScore := 0, 0.0
	for k := 0; k < len(env.Nodes); k++ {
		if k == len(o.ents) {
			c.fill(env, req, ib, o, 2*k)
		}
		e := o.ents[k]
		if best != nil && e.bound > bestScore {
			break // every later node's score is >= its bound > bestScore
		}
		n := env.Nodes[e.idx]
		if env.Eligible != nil && !env.Eligible(n) {
			continue
		}
		s := score(n)
		if best == nil || s < bestScore || (s == bestScore && (e.id < best.ID || (e.id == best.ID && e.idx < bestIdx))) {
			best, bestIdx, bestScore = n, e.idx, s
		}
	}
	return best
}

// lookup returns req's order, filled for the current network and nodes,
// or nil when the cache is full and req's key is not in it.
func (c *orderCache) lookup(env *Env, req Request, ib float64) *boundOrder {
	if c.net != env.Net || c.version != env.Net.Version() || !sameSlice(c.nodes, env.Nodes) {
		c.net, c.version, c.nodes = env.Net, env.Net.Version(), env.Nodes
		c.gen++
	}
	t := req.Task
	key := orderKey{
		origin:  req.Origin,
		inBytes: math.Float64bits(ib),
		scalar:  math.Float64bits(t.ScalarWork),
		tensor:  math.Float64bits(t.TensorWork),
		accel:   t.Accel,
	}
	o := c.orders[key]
	if o == nil {
		if len(c.orders) >= max(minOrders, len(env.Nodes)) {
			return nil
		}
		if c.orders == nil {
			c.orders = make(map[orderKey]*boundOrder)
		}
		o = &boundOrder{}
		c.orders[key] = o
	}
	if o.gen != c.gen {
		c.fill(env, req, ib, o, max(firstPrefix, len(o.ents)))
	}
	return o
}

// sameSlice reports whether a and b are the same slice header's view.
func sameSlice(a, b []*node.Node) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// fill recomputes every node's bound and sets o to the first k (at most
// len(Nodes)) in order, or marks o inexact. The order is total, so a
// longer refill extends the previous prefix without reordering it. It
// keeps the k smallest bounds in a max-heap in o.ents, so most nodes cost
// one comparison, then sorts the heap in place.
func (c *orderCache) fill(env *Env, req Request, ib float64, o *boundOrder, k int) {
	o.gen, o.exact = c.gen, false
	k = min(k, len(env.Nodes))
	t := req.Task
	c.moves = env.Net.MessageTimes(req.Origin, ib, c.moves)
	top := o.ents[:0] // max-heap of the k least entries so far
	if cap(top) < k {
		top = make([]boundEntry, 0, k)
	}
	for i, n := range env.Nodes {
		exec := n.ExecTime(t.ScalarWork, t.TensorWork, t.Accel)
		b := c.moves[n.ID] + exec // the score's move term, so bound <= score
		if !(exec >= 0) || math.IsInf(b, 0) || math.IsNaN(b) || n.Spec.Cores < 1 {
			o.ents = top[:0]
			return
		}
		e := boundEntry{bound: b, id: n.ID, idx: i}
		if len(top) < k {
			if top = append(top, e); len(top) == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDown(top, j)
				}
			}
		} else if top[0].after(e) {
			top[0] = e
			siftDown(top, 0)
		}
	}
	for last := len(top) - 1; last > 0; last-- {
		top[0], top[last] = top[last], top[0]
		siftDown(top[:last], 0)
	}
	o.ents, o.exact = top, true
}

// siftDown restores the max-heap property of h below i.
func siftDown(h []boundEntry, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1].after(h[j]) {
			j++
		}
		if !h[j].after(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
