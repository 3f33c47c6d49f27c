package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"time"

	"continuum/internal/faas"
	"continuum/internal/federation"
	"continuum/internal/metrics"
	"continuum/internal/retry"
	"continuum/internal/trace"
	"continuum/internal/wire"
)

// liveSpec is one live workload: the traffic it offers and the system it
// boots. Every system is booted in-process in the configuration the
// daemons ship with when run with -metrics-addr: a metrics registry and a
// span store on every endpoint and wire server, the builtin functions,
// capacity 8, a 2 ms cold start and a one-minute warm TTL, unless the
// workload says otherwise. Requests carry no trace context, so the
// product's span stores stay empty, as for most production traffic.
type liveSpec struct {
	name  string
	rate  float64       // offered requests per second
	limit time.Duration // latency limit a good completion meets
	// shedding says refusals are the expected answer to excess load
	// (flash-crowd): they are not failures, and latency covers
	// completed requests only. Elsewhere a failed request counts as
	// slower than any success.
	shedding bool
	items    func(*rand.Rand) []item
	// picker returns the draw of one arrival's item and priority.
	picker func(*rand.Rand) func() (int32, faas.Priority)
	boot   func(rec *recorder) (*system, error)
	// warmups requests are sent warmConc at a time before measuring.
	warmups, warmConc int
	config            map[string]any // stamped on the result
}

var liveSpecs = map[string]*liveSpec{
	"invoke-direct": {
		name: "invoke-direct", rate: 8000, limit: 10 * time.Millisecond,
		items: func(rng *rand.Rand) []item {
			its := make([]item, 1024)
			for i := range its {
				size := logUniform(rng, 64, 4096)
				switch u := rng.Float64(); {
				case u < 0.8:
					its[i] = echoItem(rng, size)
				case u < 0.9:
					its[i] = textItem(rng, "upper", size)
				default:
					its[i] = textItem(rng, "wordcount", size)
				}
			}
			return its
		},
		picker: func(rng *rand.Rand) func() (int32, faas.Priority) {
			return func() (int32, faas.Priority) { return int32(rng.Intn(1024)), faas.PriorityNormal }
		},
		boot:    bootDirect,
		warmups: 512, warmConc: 16,
		config: map[string]any{
			"endpoints": 1, "capacity": 8, "cold_start": "2ms", "warm_ttl": "1m", "admission": false,
			"client_pool": 2, "rate_rps": 8000, "mix": "80% echo, 10% upper, 10% wordcount; 64 B-4 KiB log-uniform",
		},
	},
	"invoke-routed": {
		name: "invoke-routed", rate: 2000, limit: 50 * time.Millisecond,
		items: func(rng *rand.Rand) []item {
			// The key table's shape is fixed: popularity rank r serves
			// function r mod 3 with a size from a golden-ratio sequence,
			// so the heavy keys cost the same under every seed. The
			// seed draws the payload bytes and the arrivals.
			its := make([]item, routedKeys)
			for i := range its {
				u := math.Mod(float64(i/3)*0.6180339887498949, 1)
				switch i % 3 {
				case 0:
					its[i] = matmulItem(24 + int(u*25))
				case 1:
					its[i] = textItem(rng, "wordcount", sizeAt(u, 1<<10, 16<<10))
				default:
					its[i] = echoItem(rng, sizeAt(u, 4<<10, 32<<10))
				}
				its[i].key = i
			}
			return its
		},
		picker: func(rng *rand.Rand) func() (int32, faas.Priority) {
			z := rand.NewZipf(rng, 1.1, 1, routedKeys-1)
			return func() (int32, faas.Priority) { return int32(z.Uint64()), faas.PriorityNormal }
		},
		boot:    bootRouted,
		warmups: 256, warmConc: 16,
		config: map[string]any{
			"router_policy": "hash", "endpoints": 3, "capacity": 8, "cold_start": "2ms", "warm_ttl": "1m",
			"admission": true, "max_queue": 64, "client_pool": 2, "rate_rps": 2000, "keys": routedKeys, "zipf_s": 1.1,
			"mix": "key rank r: function r mod 3 of matmul n 24-48, wordcount 1-16 KiB, echo 4-32 KiB",
		},
	},
	"flash-crowd": {
		name: "flash-crowd", rate: 2400, limit: 50 * time.Millisecond, shedding: true,
		items: func(*rand.Rand) []item { return []item{sleepItem(5)} },
		picker: func(rng *rand.Rand) func() (int32, faas.Priority) {
			return func() (int32, faas.Priority) {
				switch u := rng.Float64(); {
				case u < 0.2:
					return 0, faas.PriorityHigh
				case u < 0.7:
					return 0, faas.PriorityNormal
				}
				return 0, faas.PriorityLow
			}
		},
		boot:    bootFlash,
		warmups: 32, warmConc: 4,
		config: map[string]any{
			"endpoints": 1, "capacity": 4, "max_queue": 8, "target_queue_wait": "5ms", "cold_start": "2ms",
			"warm_ttl": "1m", "client_pool": 2, "retry_budget": "default", "rate_rps": 2400,
			"fn": "sleep 5ms", "priorities": "20% high, 50% normal, 30% low",
		},
	},
}

// routedKeys is the size of invoke-routed's key population.
const routedKeys = 512

// system is a booted set of live servers plus the client that drives
// them.
type system struct {
	client    *wire.ReliableClient
	clientReg *metrics.Registry
	eps       []*faas.Endpoint
	regs      []*metrics.Registry // every wire server's registry
	router    *federation.Router
	routerReg *metrics.Registry
	closers   []func() // run in reverse order by close
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// serve starts srv on a loopback port and registers its shutdown.
func (s *system) serve(srv *wire.Server) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns nil after Close; an accept error ends the run's traffic, which the oracle reports
	}()
	s.closers = append(s.closers, func() { srv.Close(); <-done })
	if srv.Metrics != nil {
		s.regs = append(s.regs, srv.Metrics)
	}
	return lis.Addr().String(), nil
}

// startEndpoint boots one endpoint daemon as continuumd does: builtin
// functions, a shared span store and metrics registry on the endpoint
// and its wire server. rec, when set, wraps the endpoint and its
// handlers in span recorders attributed to member.
func (s *system) startEndpoint(name string, cfg faas.EndpointConfig, rec *recorder, member int8) (*faas.Endpoint, string, error) {
	reg := faas.BuiltinRegistry()
	if rec != nil {
		reg = tracedRegistry(reg, rec, member)
	}
	cfg.Name = name
	ep := faas.NewEndpoint(cfg, reg)
	spans := trace.NewSpanStore(0)
	ep.SetSpans(spans)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	srv := &wire.Server{
		Invoker: ep, Batcher: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep},
		Name: name, Spans: spans, Metrics: m,
	}
	if rec != nil {
		t := tracedEndpoint{ep: ep, rec: rec, member: member}
		srv.Invoker, srv.Batcher = t, t
	}
	s.closers = append(s.closers, ep.Close)
	addr, err := s.serve(srv)
	if err != nil {
		return nil, "", err
	}
	s.eps = append(s.eps, ep)
	return ep, addr, nil
}

// dial builds the load generator's client: a ReliableClient with two
// pooled connections, or one per CPU on a smaller host, so the client
// opens at most nproc connections into the system, and its own metrics
// registry for the retry and failover counters.
func (s *system) dial(cfg wire.ReliableConfig) error {
	s.clientReg = metrics.NewRegistry()
	cfg.PoolSize = min(2, runtime.NumCPU())
	cfg.Metrics = s.clientReg
	c, err := wire.NewReliableClient(cfg)
	if err != nil {
		return err
	}
	s.client = c
	s.closers = append(s.closers, func() { c.Close() })
	return nil
}

// daemonConfig is the endpoint configuration continuumd ships by default.
func daemonConfig() faas.EndpointConfig {
	return faas.EndpointConfig{Capacity: 8, ColdStart: 2 * time.Millisecond, WarmTTL: time.Minute}
}

func bootDirect(rec *recorder) (*system, error) {
	s := &system{}
	_, addr, err := s.startEndpoint("ep0", daemonConfig(), rec, 0)
	if err == nil {
		err = s.dial(wire.ReliableConfig{Addrs: []string{addr}})
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func bootFlash(rec *recorder) (*system, error) {
	s := &system{}
	cfg := daemonConfig()
	cfg.Capacity = 4
	cfg.Admission = faas.AdmissionConfig{Enabled: true, MaxQueue: 8, TargetQueueWait: 5 * time.Millisecond}
	_, addr, err := s.startEndpoint("ep0", cfg, rec, 0)
	if err == nil {
		err = s.dial(wire.ReliableConfig{
			Addrs:  []string{addr},
			Budget: retry.NewBudget(retry.BudgetConfig{}),
			// Sheds are the endpoint working as designed, not a fault:
			// a breaker tripped by them would refuse the crowd
			// client-side and the admission paths would go unmeasured.
			Breaker: retry.BreakerConfig{FailureThreshold: math.MaxInt32},
		})
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// bootRouted boots a router as continuum-router does (hash policy, its
// retry policy, metrics and span store) and three admission-controlled
// endpoint daemons that join it through federation agents, and returns
// once all three are routable.
func bootRouted(rec *recorder) (*system, error) {
	s := &system{}
	fail := func(err error) (*system, error) {
		s.close()
		return nil, err
	}
	var policy federation.Policy = federation.HashPolicy{}
	if rec != nil {
		policy = tracedPolicy{inner: policy, rec: rec}
	}
	m := metrics.NewRegistry()
	spans := trace.NewSpanStore(0)
	rt, err := federation.NewRouter(federation.RouterConfig{
		Policy: policy,
		Client: wire.ReliableConfig{
			Retry: retry.Policy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
		},
		Metrics: m,
		Spans:   spans,
	})
	if err != nil {
		return fail(err)
	}
	s.router, s.routerReg = rt, m
	s.closers = append(s.closers, func() { rt.Close() })
	srv := &wire.Server{Invoker: rt, Ops: rt, Name: "router", Spans: spans, Metrics: m}
	if rec != nil {
		t := tracedRouter{rt: rt, rec: rec}
		srv.Invoker, srv.Ops = t, t
	}
	routerAddr, err := s.serve(srv)
	if err != nil {
		return fail(err)
	}

	const members = 3
	for i := 0; i < members; i++ {
		cfg := daemonConfig()
		cfg.Admission = faas.AdmissionConfig{Enabled: true, MaxQueue: 64}
		name := fmt.Sprintf("ep%d", i)
		ep, addr, err := s.startEndpoint(name, cfg, rec, int8(i))
		if err != nil {
			return fail(err)
		}
		agent := federation.NewAgent(federation.AgentConfig{
			RouterAddr: routerAddr, Name: name, Advertise: addr, Endpoint: ep,
			Functions: faas.BuiltinRegistry().Names(),
		})
		agent.Start()
		s.closers = append(s.closers, agent.Stop)
	}
	for deadline := time.Now().Add(10 * time.Second); len(rt.Registry().Routable()) < members; {
		if time.Now().After(deadline) {
			return fail(errors.New("federation: members not routable within 10s"))
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.dial(wire.ReliableConfig{Addrs: []string{routerAddr}}); err != nil {
		return fail(err)
	}
	return s, nil
}

// warm sends the workload's warm-up traffic: connections open, warm
// containers exist for every function the items use. Warm-up requests
// carry IDs from warmupBase so their spans are told apart. A refusal is
// tolerated only where the workload sheds by design.
func (w *liveSpec) warm(s *system, items []item, rng *rand.Rand) error {
	errs := make(chan error, w.warmups)
	sem := make(chan struct{}, w.warmConc)
	for i := 0; i < w.warmups; i++ {
		it := &items[rng.Intn(len(items))]
		sem <- struct{}{}
		go func(id int32) {
			defer func() { <-sem }()
			p := it.payload(id)
			out, err := s.client.InvokeContext(context.Background(), it.fn, p)
			switch o := judge(it, p, out, err); {
			case o == outOK, o == outRefused && w.shedding:
				errs <- nil
			default:
				errs <- fmt.Errorf("warm-up %s: outcome %d: %v", it.fn, o, err)
			}
		}(int32(warmupBase + i))
	}
	var first error
	for i := 0; i < w.warmups; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
