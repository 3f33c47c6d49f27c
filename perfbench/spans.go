package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/federation"
	"continuum/internal/wire"
)

// layer names one boundary the traced run records a span at. Spans are
// recorded by the benchmark around calls into each layer's public
// functions; the product itself runs untraced.
type layer uint8

const (
	layerClient   layer = iota // wire.ReliableClient.InvokeContext, from the load generator
	layerRouter                // federation.Router.InvokeContext, behind the router's wire server
	layerPolicy                // federation.Policy.Order, inside the router
	layerEndpoint              // faas.Endpoint.InvokeContext, behind an endpoint's wire server
	layerHandler               // the registered faas.Handler
	numLayers
)

var layerNames = [numLayers]string{"client", "router", "policy", "endpoint", "handler"}

// span is one recorded call: which request (the ID carried in the
// payload), which layer, which endpoint member served it (-1 where the
// layer has no member), how it ended, and its start and end in
// nanoseconds since the recorder's epoch on the monotonic clock.
type span struct {
	req        int32
	layer      layer
	member     int8
	status     status
	start, end int64
}

// status is how a recorded call ended.
type status uint8

const (
	statusOK   status = iota
	statusShed        // refused by admission control with a Retry-After hint
	statusErr         // any other error
)

var statusNames = [...]string{"ok", "shed", "error"}

// classify maps a call's error to its status.
func classify(err error) status {
	var oe *faas.OverloadError
	switch {
	case err == nil:
		return statusOK
	case errors.As(err, &oe) && oe.RetryAfter > 0:
		return statusShed
	}
	return statusErr
}

// recorder keeps spans in memory; they are analysed, and written out,
// after the run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder clock: nanoseconds since the epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span that began at start and ends now.
func (r *recorder) add(req int32, l layer, member int8, start int64, err error) {
	sp := span{req: req, layer: l, member: member, status: classify(err), start: start, end: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines, one span per line, after a
// header line carrying the run's stamp. Each line names the span's layer
// and the layer of its parent span; the parent is the span of that layer
// with the same request ID (and member, for handler spans) whose interval
// encloses it.
func writeSpans(path string, stamp []byte, spans []span, routed bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "%s\n", stamp)
	for _, s := range spans {
		parent := ""
		if pl, ok := parentLayer(s.layer, routed); ok {
			parent = layerNames[pl]
		}
		fmt.Fprintf(w, `{"req":%d,"name":%q,"parent":%q,"member":%d,"status":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.req, layerNames[s.layer], parent, s.member, statusNames[s.status], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEndpoint wraps an endpoint as a wire server's Invoker and
// Batcher, recording one endpoint span per invocation. It implements
// faas.ContextInvoker, so the server threads priority through it exactly
// as it does for a bare endpoint.
type tracedEndpoint struct {
	ep     *faas.Endpoint
	rec    *recorder
	member int8
}

func (t tracedEndpoint) Invoke(fn string, payload []byte) ([]byte, error) {
	return t.InvokeContext(context.Background(), fn, payload)
}

func (t tracedEndpoint) InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	start := t.rec.now()
	out, err := t.ep.InvokeContext(ctx, fn, payload)
	t.rec.add(reqID(payload), layerEndpoint, t.member, start, err)
	return out, err
}

func (t tracedEndpoint) InvokeBatch(fn string, payloads [][]byte) ([][]byte, error) {
	return t.ep.InvokeBatch(fn, payloads)
}

// tracedRouter wraps a router as its wire server's Invoker and Ops
// handler, recording one router span per routed invocation.
type tracedRouter struct {
	rt  *federation.Router
	rec *recorder
}

func (t tracedRouter) Invoke(fn string, payload []byte) ([]byte, error) {
	return t.InvokeContext(context.Background(), fn, payload)
}

func (t tracedRouter) InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	start := t.rec.now()
	out, err := t.rt.InvokeContext(ctx, fn, payload)
	t.rec.add(reqID(payload), layerRouter, -1, start, err)
	return out, err
}

func (t tracedRouter) HandleOp(req *wire.Request) (*wire.Response, bool) {
	return t.rt.HandleOp(req)
}

// tracedPolicy wraps the router's policy, recording one policy span per
// ordering decision.
type tracedPolicy struct {
	inner federation.Policy
	rec   *recorder
}

func (t tracedPolicy) Order(fn string, payload []byte, members []wire.MemberStatus) []string {
	start := t.rec.now()
	out := t.inner.Order(fn, payload, members)
	t.rec.add(reqID(payload), layerPolicy, -1, start, nil)
	return out
}

// tracedRegistry returns a copy of base whose every handler records a
// handler span attributed to member.
func tracedRegistry(base *faas.Registry, rec *recorder, member int8) *faas.Registry {
	reg := faas.NewRegistry()
	for _, name := range base.Names() {
		h, _ := base.Lookup(name) // name came from base.Names
		reg.Register(name, func(p []byte) ([]byte, error) {
			start := rec.now()
			out, err := h(p)
			rec.add(reqID(p), layerHandler, member, start, err)
			return out, err
		})
	}
	return reg
}

// parentLayer is the layer whose span a span of layer l nests in: the
// call that caused it. routed says a router sits between the client and
// the endpoints.
func parentLayer(l layer, routed bool) (layer, bool) {
	switch l {
	case layerRouter:
		return layerClient, true
	case layerPolicy:
		return layerRouter, true
	case layerEndpoint:
		if routed {
			return layerRouter, true
		}
		return layerClient, true
	case layerHandler:
		return layerEndpoint, true
	}
	return 0, false
}

// selfTime returns a parent span's duration minus the time its children
// cover, and whether the children nest: each lies inside the parent and
// none overlaps another. When they nest, self time plus the children's
// summed durations equals the parent's duration exactly; when they do
// not, self time subtracts only the union of the children clipped to the
// parent, so it is never negative.
func selfTime(parent span, children []span) (self int64, nested bool) {
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	nested = true
	covered := int64(0)
	cursor := parent.start
	for _, c := range cs {
		if c.start < parent.start || c.end > parent.end || c.start < cursor {
			nested = false
		}
		s, e := max(c.start, cursor), min(c.end, parent.end)
		if e > s {
			covered += e - s
		}
		cursor = max(cursor, min(c.end, parent.end))
	}
	return parent.end - parent.start - covered, nested
}

// spanStats is what the traced run derives from its spans.
type spanStats struct {
	// self holds each layer's self times in microseconds.
	self [numLayers][]float64
	// dur holds each layer's durations in microseconds.
	dur [numLayers][]float64
	// unnested counts parent spans whose children escape or overlap.
	unnested int
	// orphans counts spans with no enclosing parent span.
	orphans int
	// served maps request ID to the members whose endpoint span
	// completed it.
	served map[int32][]int8
	// badRefusals counts endpoint spans that failed without being a
	// Retry-After-hinted shed.
	badRefusals int
}

// analyse groups spans by request and computes every span's self time.
// Spans whose request ID is outside [0, n) belong to warm-up traffic and
// are ignored.
func analyse(spans []span, n int, routed bool) spanStats {
	st := spanStats{served: make(map[int32][]int8)}
	ss := append([]span(nil), spans...)
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].req != ss[j].req {
			return ss[i].req < ss[j].req
		}
		return ss[i].start < ss[j].start
	})
	for i := 0; i < len(ss); {
		j := i
		for j < len(ss) && ss[j].req == ss[i].req {
			j++
		}
		if req := ss[i].req; req >= 0 && int(req) < n {
			st.addRequest(ss[i:j], routed)
		}
		i = j
	}
	return st
}

// addRequest accounts one request's spans.
func (st *spanStats) addRequest(group []span, routed bool) {
	children := make([][]span, len(group))
	for _, c := range group {
		pl, ok := parentLayer(c.layer, routed)
		if !ok {
			continue
		}
		found := false
		for pi, p := range group {
			if p.layer == pl && (pl != layerEndpoint || p.member == c.member) &&
				c.start < p.end && c.end > p.start {
				children[pi] = append(children[pi], c)
				found = true
				break
			}
		}
		if !found {
			st.orphans++
		}
	}
	for pi, p := range group {
		self, nested := selfTime(p, children[pi])
		if !nested {
			st.unnested++
		}
		st.self[p.layer] = append(st.self[p.layer], float64(self)/1e3)
		st.dur[p.layer] = append(st.dur[p.layer], float64(p.end-p.start)/1e3)
		if p.layer == layerEndpoint {
			switch p.status {
			case statusOK:
				st.served[p.req] = append(st.served[p.req], p.member)
			case statusErr:
				st.badRefusals++
			}
		}
	}
}
