// Package placement answers the keynote's first question — "where should I
// compute?" — over a modeled continuum.
//
// Two families live here:
//
//   - Online policies (Policy): pick a node for each arriving task, given
//     the network, current node occupancy, and (optionally) data replica
//     locations. These drive the streaming/IoT experiments.
//   - Static DAG schedulers (HEFT, CPOP, and list baselines in heft.go):
//     map a whole workflow to nodes before execution. These drive the
//     science-workflow experiments.
//
// All estimators share one cost model: completion = input movement +
// queueing + execution; energy = active watts × execution time; dollars =
// node $/hour × execution time + egress.
package placement

import (
	"fmt"
	"math"

	"continuum/internal/data"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// Env is the continuum view a policy sees when deciding. Policies keep
// per-Env caches (see GreedyLatency), so an Env is not safe for
// concurrent use, node specs must not change while it is in use, and a
// caller that changes the candidate set assigns a new Nodes slice rather
// than rewriting the old one in place.
type Env struct {
	Net   *netsim.Network
	Nodes []*node.Node
	// Fabric is optional; when present, data-aware policies use replica
	// locations for staging estimates.
	Fabric *data.Fabric
	// Eligible, when set, is consulted at every decision: policies only
	// choose nodes it accepts (up, not cordoned, not the straggler a
	// backup replica must avoid). Nil accepts every node.
	Eligible func(*node.Node) bool

	cands  []*node.Node // Candidates' scratch
	orders *orderCache  // GreedyLatency's lower-bound orders
}

// Candidates returns the nodes a policy may choose from right now: Nodes
// filtered by Eligible, in Nodes order. With Eligible nil it is Nodes
// itself; otherwise it is scratch owned by env, valid until the next call.
func (env *Env) Candidates() []*node.Node {
	if env.Eligible == nil {
		return env.Nodes
	}
	out := env.cands[:0]
	for _, n := range env.Nodes {
		if env.Eligible(n) {
			out = append(out, n)
		}
	}
	env.cands = out
	return out
}

// Request is one task to place, originating (its input data, its caller)
// at a topology vertex.
type Request struct {
	Task   *task.Task
	Origin int
}

// Policy selects a node for each request from env.Candidates(), or
// returns nil when there is none. Implementations must be deterministic
// given their construction parameters (randomized policies take an
// explicit RNG).
type Policy interface {
	Name() string
	Select(env *Env, req Request) *node.Node
}

// inputBytes sums the external input data the request must see.
func inputBytes(t *task.Task) float64 {
	sum := 0.0
	for _, in := range t.Inputs {
		sum += in.Bytes
	}
	return sum
}

// EstimateLatency returns the estimated completion time for req on n:
// input movement (from the fabric's nearest replicas when available,
// otherwise from the request origin) + queue wait + execution.
//
// Without a fabric, move + exec is a lower bound that ignores load: the
// score at zero backlog. The wait term is backlog × exec / cores, which
// is >= 0 whenever exec >= 0 and cores >= 1, and IEEE addition is
// monotone, so (move + wait) + exec >= move + exec holds bit for bit.
// GreedyLatency walks nodes in order of that bound and stops once the
// bound passes the best score seen (see order.go).
func EstimateLatency(env *Env, req Request, n *node.Node) float64 {
	if env.Fabric == nil || len(req.Task.Inputs) == 0 {
		// Inputs ship from the origin in one message; an empty
		// invocation still pays one-way control latency, the
		// MessageTime of zero bytes.
		return completion(env.Net.MessageTime(req.Origin, n.ID, inputBytes(req.Task)), req.Task, n)
	}
	move := 0.0
	for _, in := range req.Task.Inputs {
		st := env.Fabric.StageTime(data.Dataset{Name: in.Name, Bytes: in.Bytes}, n.ID)
		if math.IsInf(st, 1) {
			// Replica unknown to the fabric: fall back to shipping
			// from the origin.
			st = env.Net.MessageTime(req.Origin, n.ID, in.Bytes)
		}
		move += st
	}
	return completion(move, req.Task, n)
}

// completion adds queue wait and execution to move.
func completion(move float64, t *task.Task, n *node.Node) float64 {
	exec := n.ExecTime(t.ScalarWork, t.TensorWork, t.Accel)
	// Queue estimate: outstanding work ahead of us, spread over cores,
	// approximated with this task's own execution time as the mean.
	backlog := float64(n.Cores.InUse()) + float64(n.Cores.QueueLen())
	wait := backlog * exec / float64(n.Spec.Cores)
	return move + wait + exec
}

// EstimateEnergy returns the marginal joules req would consume on n:
// active-core draw (plus accelerator draw when used) over the execution.
func EstimateEnergy(env *Env, req Request, n *node.Node) float64 {
	exec := n.ExecTime(req.Task.ScalarWork, req.Task.TensorWork, req.Task.Accel)
	w := n.ActiveWattsCore
	if req.Task.TensorWork > 0 && n.HasAccel(req.Task.Accel) {
		w += n.Accel.Watts
	}
	return w * exec
}

// EstimateDollars returns the marginal dollar cost of req on n, including
// egress for shipping the result back to the origin.
func EstimateDollars(env *Env, req Request, n *node.Node) float64 {
	exec := n.ExecTime(req.Task.ScalarWork, req.Task.TensorWork, req.Task.Accel)
	c := n.DollarCost(exec)
	c += n.EgressPerByte * req.Task.OutputBytes
	return c
}

// argmin returns the node minimizing score, breaking ties on lower node ID
// for determinism. It panics if nodes is empty.
func argmin(nodes []*node.Node, score func(*node.Node) float64) *node.Node {
	if len(nodes) == 0 {
		panic("placement: no candidate nodes")
	}
	best := nodes[0]
	bestScore := score(best)
	for _, n := range nodes[1:] {
		s := score(n)
		if s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

// lowest is argmin over cands, or nil when cands is empty (no eligible
// node).
func lowest(cands []*node.Node, score func(*node.Node) float64) *node.Node {
	if len(cands) == 0 {
		return nil
	}
	return argmin(cands, score)
}

// filterClass returns nodes with Class in [lo, hi]; if none match it
// returns the input unchanged (graceful degradation beats a panic when an
// experiment configures a tier-free continuum).
func filterClass(nodes []*node.Node, lo, hi node.Class) []*node.Node {
	var out []*node.Node
	for _, n := range nodes {
		if n.Class >= lo && n.Class <= hi {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nodes
	}
	return out
}

// EdgeOnly places every task on edge-tier nodes (Sensor..Fog), choosing
// the least-loaded nearest one. The "never leave the edge" baseline.
type EdgeOnly struct{}

// Name implements Policy.
func (EdgeOnly) Name() string { return "edge-only" }

// Select implements Policy.
func (EdgeOnly) Select(env *Env, req Request) *node.Node {
	cands := filterClass(env.Candidates(), node.Sensor, node.Fog)
	return lowest(cands, func(n *node.Node) float64 {
		return EstimateLatency(env, req, n)
	})
}

// CloudOnly places every task on Cloud/HPC nodes: the "ship everything to
// the data center" baseline that pays WAN latency and egress.
type CloudOnly struct{}

// Name implements Policy.
func (CloudOnly) Name() string { return "cloud-only" }

// Select implements Policy.
func (CloudOnly) Select(env *Env, req Request) *node.Node {
	cands := filterClass(env.Candidates(), node.Cloud, node.HPC)
	return lowest(cands, func(n *node.Node) float64 {
		return EstimateLatency(env, req, n)
	})
}

// Random places uniformly at random — the floor any useful policy must
// beat.
type Random struct{ RNG *workload.RNG }

// Name implements Policy.
func (Random) Name() string { return "random" }

// Select implements Policy.
func (r Random) Select(env *Env, req Request) *node.Node {
	cands := env.Candidates()
	if len(cands) == 0 {
		return nil
	}
	return cands[r.RNG.Intn(len(cands))]
}

// RoundRobin cycles through nodes: oblivious load spreading.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements Policy.
func (r *RoundRobin) Select(env *Env, req Request) *node.Node {
	cands := env.Candidates()
	if len(cands) == 0 {
		return nil
	}
	n := cands[r.next%len(cands)]
	r.next++
	return n
}

// GreedyLatency picks the node with the lowest estimated completion time,
// ignoring data replicas (it ships inputs from the origin), ties to the
// lower node ID. It does not score every node: it walks a per-Env cached
// order of load-free lower bounds and stops once no unscored node can
// win (see order.go), returning exactly what scoring them all would.
type GreedyLatency struct{}

// Name implements Policy.
func (GreedyLatency) Name() string { return "greedy-latency" }

// Select implements Policy.
func (GreedyLatency) Select(env *Env, req Request) *node.Node {
	if env.orders == nil {
		env.orders = &orderCache{}
	}
	return env.orders.selectGreedy(env, req)
}

// DataAware is GreedyLatency plus replica knowledge: staging time is
// computed from the nearest replica (and is zero on a cache hit), so
// compute moves to data when data is big and to fast silicon when data is
// small — the continuum tradeoff the keynote centers on.
type DataAware struct{}

// Name implements Policy.
func (DataAware) Name() string { return "data-aware" }

// Select implements Policy.
func (DataAware) Select(env *Env, req Request) *node.Node {
	return lowest(env.Candidates(), func(n *node.Node) float64 {
		return EstimateLatency(env, req, n)
	})
}

// GreedyEnergy minimizes marginal joules.
type GreedyEnergy struct{}

// Name implements Policy.
func (GreedyEnergy) Name() string { return "greedy-energy" }

// Select implements Policy.
func (GreedyEnergy) Select(env *Env, req Request) *node.Node {
	return lowest(env.Candidates(), func(n *node.Node) float64 {
		return EstimateEnergy(env, req, n)
	})
}

// GreedyCost minimizes marginal dollars.
type GreedyCost struct{}

// Name implements Policy.
func (GreedyCost) Name() string { return "greedy-cost" }

// Select implements Policy.
func (GreedyCost) Select(env *Env, req Request) *node.Node {
	return lowest(env.Candidates(), func(n *node.Node) float64 {
		return EstimateDollars(env, req, n)
	})
}

// Weights configures a multi-objective scalarization. Each weight
// multiplies a normalized objective; zero drops the objective.
type Weights struct {
	Latency float64
	Energy  float64
	Dollars float64
}

// MultiObjective scores nodes by a weighted sum of normalized latency,
// energy and dollar estimates (normalized by the per-request minimum of
// each objective across candidates, so objectives are unit-free and
// comparable).
type MultiObjective struct {
	W Weights
}

// Name implements Policy.
func (m MultiObjective) Name() string {
	return fmt.Sprintf("multi(l=%.2g,e=%.2g,c=%.2g)", m.W.Latency, m.W.Energy, m.W.Dollars)
}

// Select implements Policy.
func (m MultiObjective) Select(env *Env, req Request) *node.Node {
	cands := env.Candidates()
	if len(cands) == 0 {
		return nil
	}
	lat := make([]float64, len(cands))
	eng := make([]float64, len(cands))
	dol := make([]float64, len(cands))
	minLat, minEng, minDol := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, n := range cands {
		lat[i] = EstimateLatency(env, req, n)
		eng[i] = EstimateEnergy(env, req, n)
		dol[i] = EstimateDollars(env, req, n)
		minLat = math.Min(minLat, lat[i])
		minEng = math.Min(minEng, eng[i])
		minDol = math.Min(minDol, dol[i])
	}
	norm := func(v, min float64) float64 {
		if min <= 0 {
			return v
		}
		return v / min
	}
	best, bestScore := cands[0], math.Inf(1)
	for i, n := range cands {
		s := m.W.Latency*norm(lat[i], minLat) +
			m.W.Energy*norm(eng[i], minEng) +
			m.W.Dollars*norm(dol[i], minDol)
		if s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}
