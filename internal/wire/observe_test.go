package wire

import (
	"bytes"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
)

// startObservedServer is startServer plus a metrics registry shared
// between the endpoint and the wire server, the way continuumd wires it.
func startObservedServer(t *testing.T) (*metrics.Registry, string) {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("upper", func(p []byte) ([]byte, error) {
		return bytes.ToUpper(p), nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "local", Capacity: 4, ColdStart: 0, WarmTTL: time.Minute,
	}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	srv := &Server{
		Invoker: ep, Batcher: ep, Registry: reg,
		Endpoints: []*faas.Endpoint{ep},
		Metrics:   m,
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return m, lis.Addr().String()
}

// TestRequestIDEcho drives raw frames with explicit IDs across three ops
// and checks each response carries its request's ID back verbatim.
func TestRequestIDEcho(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reqs := []Request{
		{Op: OpPing, ID: "ping-1"},
		{Op: OpInvoke, ID: "inv-2", Fn: "echo", Payload: []byte("x")},
		{Op: OpStats, ID: "stats-3"},
	}
	for _, req := range reqs {
		if err := WriteFrame(conn, &req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if _, err := ReadFrame(conn, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != req.ID {
			t.Fatalf("op %s: response ID %q, want %q", req.Op, resp.ID, req.ID)
		}
		if !resp.OK {
			t.Fatalf("op %s failed: %s", req.Op, resp.Error)
		}
	}
}

func TestClientGeneratesUniqueIDs(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req1 := &Request{Op: OpPing}
	if _, err := c.roundTrip(req1); err != nil {
		t.Fatal(err)
	}
	req2 := &Request{Op: OpPing}
	if _, err := c.roundTrip(req2); err != nil {
		t.Fatal(err)
	}
	if req1.ID == "" || req2.ID == "" || req1.ID == req2.ID {
		t.Fatalf("IDs not unique: %q, %q", req1.ID, req2.ID)
	}
	if !strings.HasPrefix(req1.ID, c.prefix+"-") {
		t.Fatalf("ID %q missing connection prefix %q", req1.ID, c.prefix)
	}
}

// waitCounter waits for counter name to read exactly want. The server
// accounts a request after queueing its response, so the client can see
// the answer a moment before the counters move.
func waitCounter(t *testing.T, m *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := m.Counter(name).Value()
		if got == want {
			return
		}
		if got > want || time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerPerOpCounters(t *testing.T) {
	m, addr := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("echo", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("echo", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("ghost", nil); err == nil {
		t.Fatal("unknown function succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, m, metrics.Label("wire_requests_total", "op", "invoke"), 3)
	waitCounter(t, m, metrics.Label("wire_errors_total", "op", "invoke"), 1)
	waitCounter(t, m, metrics.Label("wire_requests_total", "op", "ping"), 1)
	if got := m.Counter(metrics.Label("wire_request_bytes_total", "op", "invoke")).Value(); got <= 0 {
		t.Fatalf("invoke request bytes = %d, want > 0", got)
	}
	if got := m.Counter(metrics.Label("wire_response_bytes_total", "op", "invoke")).Value(); got <= 0 {
		t.Fatalf("invoke response bytes = %d, want > 0", got)
	}
}

// TestUnknownOpsBoundedMetrics: op strings come off the network, so
// ops outside the protocol's constants share op="unknown" — any number
// of distinct junk ops adds the same fixed set of registry names.
func TestUnknownOpsBoundedMetrics(t *testing.T) {
	m, addr := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	junk := func(from, to int) int {
		for i := from; i < to; i++ {
			if _, err := c.roundTrip(&Request{Op: Op(fmt.Sprintf("junk-%d", i))}); err == nil {
				t.Fatalf("junk op %d succeeded", i)
			}
		}
		return len(m.Names())
	}
	after1, after200 := junk(0, 1), junk(1, 200)
	if after200 != after1 {
		t.Fatalf("registry grew from %d to %d names over 199 more junk ops", after1, after200)
	}
	waitCounter(t, m, metrics.Label("wire_requests_total", "op", "unknown"), 200)
	waitCounter(t, m, metrics.Label("wire_errors_total", "op", "unknown"), 200)
	for _, name := range m.Names() {
		if strings.Contains(name, "junk") {
			t.Fatalf("registry holds a peer-chosen name %q", name)
		}
	}
}

func TestClientTop(t *testing.T) {
	_, addr := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke("echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Invoke("upper", []byte("y")); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Top()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("top rows = %+v, want 2 entries", rows)
	}
	// Sorted by endpoint then fn: echo before upper.
	if rows[0].Fn != "echo" || rows[1].Fn != "upper" {
		t.Fatalf("row order = %q, %q", rows[0].Fn, rows[1].Fn)
	}
	e := rows[0]
	if e.Endpoint != "local" || e.Count != 5 {
		t.Fatalf("echo row = %+v", e)
	}
	if e.ColdStarts != 1 || e.WarmHits != 4 {
		t.Fatalf("echo cold/warm = %d/%d, want 1/4", e.ColdStarts, e.WarmHits)
	}
	if e.P50 < 0 || e.P99 < e.P50 {
		t.Fatalf("echo percentiles out of order: p50=%v p99=%v", e.P50, e.P99)
	}
}

func TestClientTopWithoutMetrics(t *testing.T) {
	_, addr := startServer(t) // no registry attached
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Top(); err == nil {
		t.Fatal("top succeeded on a server without metrics")
	}
}

// TestServerLogsRequests checks the one-line-per-request contract: the
// structured line carries the request ID and op.
func TestServerLogsRequests(t *testing.T) {
	regF := faas.NewRegistry()
	regF.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "local", Capacity: 1, WarmTTL: time.Minute,
	}, regF)
	var buf bytes.Buffer
	srv := &Server{
		Invoker: ep, Registry: regF, Endpoints: []*faas.Endpoint{ep},
		Logger: slog.New(slog.NewTextHandler(&syncWriter{w: &buf}, nil)),
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Op: OpInvoke, ID: "trace-me", Fn: "echo", Payload: []byte("x")}
	if _, err := c.roundTrip(req); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()

	out := buf.String()
	if !strings.Contains(out, "trace-me") || !strings.Contains(out, "op=invoke") {
		t.Fatalf("log line missing id/op: %q", out)
	}
}

// syncWriter serializes writes so the handler goroutine and the test body
// never race on the buffer.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
