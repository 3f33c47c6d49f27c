package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
)

// usage is the process's resource counters at one instant.
type usage struct {
	cpu     time.Duration // user + system CPU
	mallocs uint64
	bytes   uint64
	gc      uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gc:      ms.NumGC,
	}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs, bytes: u.bytes - v.bytes, gc: u.gc - v.gc}
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// counters is a snapshot of the public counters of every layer of a
// live system.
type counters struct {
	invocations, cold, warm, shed int64
	shedBy                        [faas.NumPriorities]int64
	perMember                     []int64 // completed invocations per endpoint
	reqBytes, respBytes           int64   // invoke frames, summed over every wire server
	retries, failovers            int64   // reliable clients: load generator and router
	budgetDenials                 int64
	routes, routeErrs             int64
}

func (s *system) counters() counters {
	var c counters
	for _, ep := range s.eps {
		c.invocations += ep.Invocations()
		c.perMember = append(c.perMember, ep.Invocations())
		c.cold += ep.ColdStarts()
		c.warm += ep.WarmHits()
		c.shed += ep.Shed()
		by := ep.ShedByPriority()
		for i := range by {
			c.shedBy[i] += by[i]
		}
	}
	for _, m := range s.regs {
		c.reqBytes += m.Counter(metrics.Label("wire_request_bytes_total", "op", "invoke")).Value()
		c.respBytes += m.Counter(metrics.Label("wire_response_bytes_total", "op", "invoke")).Value()
	}
	clientRegs := []*metrics.Registry{s.clientReg}
	c.budgetDenials = s.client.BudgetDenials()
	if s.router != nil {
		clientRegs = append(clientRegs, s.routerReg) // the router's registry carries its client's counters
		c.budgetDenials += s.router.Client().BudgetDenials()
		c.routes, c.routeErrs = s.router.RouteStats()
	}
	for _, m := range clientRegs {
		c.retries += m.Counter("wire_client_retries_total").Value()
		c.failovers += m.Counter("wire_client_failovers_total").Value()
	}
	return c
}

func (c counters) sub(d counters) counters {
	out := c
	out.invocations -= d.invocations
	out.cold -= d.cold
	out.warm -= d.warm
	out.shed -= d.shed
	for i := range out.shedBy {
		out.shedBy[i] -= d.shedBy[i]
	}
	out.perMember = append([]int64(nil), c.perMember...)
	for i := range out.perMember {
		out.perMember[i] -= d.perMember[i]
	}
	out.reqBytes -= d.reqBytes
	out.respBytes -= d.respBytes
	out.retries -= d.retries
	out.failovers -= d.failovers
	out.budgetDenials -= d.budgetDenials
	out.routes -= d.routes
	out.routeErrs -= d.routeErrs
	return out
}

// livePhase is one measured window of a live workload.
type livePhase struct {
	spec    *liveSpec
	routed  bool // a router sits between the client and the endpoints
	horizon time.Duration
	sched   []op
	items   []item
	setups  []float64 // seconds per set-up
	d       *driveResult
	use     usage    // over the window, drain included
	delta   counters // over the window, drain included
	spans   []span   // traced phases only
	// queueMax and slotMean sample the endpoints every millisecond
	// (traced phases only).
	queueMax int
	slotMean float64
}

// runLivePhase sets the workload's system up setups times (keeping the
// last one), then drives one horizon of the seeded schedule through it.
// traced wraps every layer in span recorders.
func runLivePhase(w *liveSpec, seed int64, horizon time.Duration, setups int, traced bool) (*livePhase, error) {
	rng := rand.New(rand.NewSource(seed))
	ph := &livePhase{spec: w, horizon: horizon}
	ph.items = w.items(rng)
	ph.sched = poissonSchedule(rng, w.rate, horizon, w.picker(rng))
	if len(ph.sched) == 0 {
		return nil, fmt.Errorf("%s: empty schedule over %v", w.name, horizon)
	}

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var sys *system
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := w.boot(rec)
		if err != nil {
			return nil, fmt.Errorf("%s: boot: %w", w.name, err)
		}
		if err := w.warm(s, ph.items, rand.New(rand.NewSource(seed+int64(i)+1))); err != nil {
			s.close()
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
		if i < setups-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	ph.routed = sys.router != nil

	var stopSampler func()
	if traced {
		stopSampler = ph.sample(sys)
	}
	c0, u0 := sys.counters(), readUsage()
	ph.d = drive(sys.client, ph.sched, ph.items, rec)
	ph.use = readUsage().sub(u0)
	ph.delta = sys.counters().sub(c0)
	if traced {
		stopSampler()
		ph.spans = rec.snapshot()
	}
	return ph, nil
}

// sample polls every endpoint's queue depth and slot limit each
// millisecond until the returned stop function is called.
func (ph *livePhase) sample(sys *system) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		slots, n := 0, 0
		defer func() {
			if n > 0 {
				ph.slotMean = float64(slots) / float64(n)
			}
		}()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			for _, ep := range sys.eps {
				ph.queueMax = max(ph.queueMax, ep.QueueDepth())
				slots += ep.SlotLimit()
				n++
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// failedLatency stands in for the latency of a failed request where a
// failure counts as slower than any success: longer than any request
// can take, since the drain bound cancels whatever is still pending.
const failedLatency = 2 * drainBound

// latencies returns the latencies in ms, in schedule order, of requests
// at priority floor or above: every such request, a failure at
// failedLatency, or, for a shedding workload, completed requests only.
func (ph *livePhase) latencies(floor faas.Priority) []float64 {
	var out []float64
	for i, o := range ph.d.out {
		switch {
		case ph.sched[i].prio < floor:
		case o == outOK:
			out = append(out, ms(ph.d.lat[i]))
		case !ph.spec.shedding:
			out = append(out, ms(failedLatency))
		}
	}
	return out
}

// topPriority is the highest priority class the schedule carries.
func (ph *livePhase) topPriority() faas.Priority {
	top := faas.PriorityLow
	for _, o := range ph.sched {
		top = max(top, o.prio)
	}
	return top
}

// failures counts requests the oracle rejects: wrong answers, errors,
// requests still pending at the drain bound, refusals where the
// workload does not shed by design, and accepted invocations that never
// reached the client as a success (lost or duplicated work).
func (ph *livePhase) failures() int {
	n := ph.d.count(outWrong) + ph.d.count(outError) + ph.d.count(outPending)
	if !ph.spec.shedding {
		n += ph.d.count(outRefused)
	}
	diff := ph.delta.invocations - int64(ph.d.count(outOK))
	return n + int(max(diff, -diff))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Quiet-stretch percentiles cut a run into chunks of quietChunk
// requests and pool at least quietMinChunks of them: 1,000 requests, so
// a pooled p99 has ten samples beyond it.
const (
	quietChunk     = 100
	quietMinChunks = 10
)

// endToEnd computes the live end-to-end metrics of an untraced phase.
func (ph *livePhase) endToEnd(m metricSet) {
	n := float64(len(ph.sched))
	lat := ph.latencies(faas.PriorityLow)
	high := ph.latencies(ph.topPriority())
	fmt.Printf("# latency samples: %d; top priority class: %d\n", len(lat), len(high))
	good := 0
	for i, o := range ph.d.out {
		if o == outOK && ph.d.lat[i] <= ph.spec.limit {
			good++
		}
	}
	m.set("setup_s", median(ph.setups))
	m.set("quiet_p50_ms", quietQuantile(lat, quietChunk, 0.5, quietMinChunks))
	m.set("quiet_p99_ms", quietQuantile(lat, quietChunk, 0.99, quietMinChunks))
	m.set("quiet_high_p99_ms", quietQuantile(high, quietChunk, 0.99, quietMinChunks))
	m.set("goodput_rps", float64(good)/ph.horizon.Seconds())
	m.set("ok_frac", float64(ph.d.count(outOK))/n)
	m.set("cpu_us_per_op", float64(ph.use.cpu)/float64(time.Microsecond)/n)
	m.set("max_rss_mb", maxRSSMB())
}

// loadgenLayer reports, from an untraced phase, the run-wide latency
// percentiles the quiet-stretch metrics leave out, how faithfully the
// generator kept its schedule, and the runtime's allocation figures.
func (ph *livePhase) loadgenLayer(m metricSet) {
	lat := sortedCopy(ph.latencies(faas.PriorityLow))
	m.set("latency.p50_ms", percentile(lat, 0.5))
	m.set("latency.p99_ms", percentile(lat, 0.99))
	m.set("latency.high_p99_ms", percentile(sortedCopy(ph.latencies(ph.topPriority())), 0.99))
	late := make([]float64, len(ph.d.late))
	for i, d := range ph.d.late {
		late[i] = ms(d)
	}
	sorted := sortedCopy(late)
	n := float64(len(ph.sched))
	m.set("loadgen.late_p50_ms", percentile(sorted, 0.5))
	m.set("loadgen.late_p99_ms", percentile(sorted, 0.99))
	m.set("loadgen.max_inflight", float64(ph.d.maxInflight))
	m.set("runtime.allocs_per_op", float64(ph.use.mallocs)/n)
	m.set("runtime.bytes_per_op", float64(ph.use.bytes)/n)
	m.set("runtime.gc_cycles", float64(ph.use.gc))
}

// layers computes the span- and counter-derived per-layer metrics of a
// traced phase. It returns the number of spans that break the self-time
// identity (children that escape or overlap, or have no parent) and the
// number of endpoint calls that failed other than by a hinted shed.
func (ph *livePhase) layers(m metricSet) (unnested, badRefusals int) {
	st := analyse(ph.spans, len(ph.sched), ph.routed)
	q := func(name string, l layer, self bool) {
		xs := st.dur[l]
		if self {
			xs = st.self[l]
		}
		s := sortedCopy(xs)
		m.set(name+".p50", percentile(s, 0.5))
		m.set(name+".p99", percentile(s, 0.99))
	}
	q("wire.client_self_us", layerClient, true)
	q("faas.endpoint_self_us", layerEndpoint, true)
	q("faas.exec_us", layerHandler, false)
	q("federation.policy_us", layerPolicy, false)
	q("federation.router_self_us", layerRouter, true)

	d := ph.delta
	n := float64(len(ph.sched))
	m.set("wire.req_bytes_per_op", float64(d.reqBytes)/n)
	m.set("wire.resp_bytes_per_op", float64(d.respBytes)/n)
	m.set("wire.client_retries", float64(d.retries))
	m.set("wire.client_failovers", float64(d.failovers))
	m.set("wire.budget_denials", float64(d.budgetDenials))
	m.set("faas.cold_starts", float64(d.cold))
	if d.cold+d.warm > 0 {
		m.set("faas.warm_ratio", float64(d.warm)/float64(d.cold+d.warm))
	}
	if d.shed+d.invocations > 0 {
		m.set("faas.shed_frac", float64(d.shed)/float64(d.shed+d.invocations))
	}
	m.set("faas.shed.low", float64(d.shedBy[0]))
	m.set("faas.shed.normal", float64(d.shedBy[1]))
	m.set("faas.shed.high", float64(d.shedBy[2]))
	m.set("faas.queue_depth.max", float64(ph.queueMax))
	m.set("faas.slot_limit.mean", ph.slotMean)
	m.set("federation.routes", float64(d.routes))
	m.set("federation.route_errors", float64(d.routeErrs))
	m.set("federation.affinity", ph.affinity(st))
	m.set("federation.balance", balance(d.perMember))
	m.set("trace.unnested_spans", float64(st.unnested+st.orphans))
	return st.unnested + st.orphans, st.badRefusals
}

// affinity is the share of calls served by their key's modal member:
// 1 when every key always lands on one member.
func (ph *livePhase) affinity(st spanStats) float64 {
	byKey := make(map[int]map[int8]int)
	total := 0
	for req, members := range st.served {
		key := ph.items[ph.sched[req].item].key
		if byKey[key] == nil {
			byKey[key] = make(map[int8]int)
		}
		for _, mb := range members {
			byKey[key][mb]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	modal := 0
	for _, counts := range byKey {
		best := 0
		for _, c := range counts {
			best = max(best, c)
		}
		modal += best
	}
	return float64(modal) / float64(total)
}

// balance is the busiest member's share of completed invocations over
// the mean share: 1 is a perfectly even spread.
func balance(perMember []int64) float64 {
	var sum, top int64
	for _, c := range perMember {
		sum += c
		top = max(top, c)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(perMember)))
}
