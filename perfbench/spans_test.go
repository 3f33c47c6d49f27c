package main

import (
	"errors"
	"math/rand"
	"testing"

	"continuum/internal/faas"
)

func sp(req int32, l layer, member int8, start, end int64) span {
	return span{req: req, layer: l, member: member, start: start, end: end}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	parent := sp(1, layerRouter, -1, 100, 200)
	children := []span{
		sp(1, layerEndpoint, 0, 150, 190), // out of order on purpose
		sp(1, layerPolicy, -1, 105, 110),
	}
	self, nested := selfTime(parent, children)
	if !nested {
		t.Fatal("disjoint children inside the parent reported as not nested")
	}
	if self != 55 {
		t.Fatalf("self = %d, want 100 - 5 - 40 = 55", self)
	}
	// The identity the traced run checks: self plus children equals the
	// parent's duration.
	sum := self
	for _, c := range children {
		sum += c.end - c.start
	}
	if sum != parent.end-parent.start {
		t.Fatalf("self + children = %d, want %d", sum, parent.end-parent.start)
	}
}

func TestSelfTimeLeafIsDuration(t *testing.T) {
	self, nested := selfTime(sp(1, layerHandler, 0, 10, 35), nil)
	if self != 25 || !nested {
		t.Fatalf("leaf self = %d nested=%v, want 25 true", self, nested)
	}
}

func TestSelfTimeClipsEscapingAndOverlappingChildren(t *testing.T) {
	parent := sp(1, layerClient, -1, 100, 200)
	cases := []struct {
		name     string
		children []span
		self     int64
	}{
		{"starts before", []span{sp(1, layerEndpoint, 0, 90, 120)}, 80},
		{"ends after", []span{sp(1, layerEndpoint, 0, 180, 230)}, 80},
		{"overlapping", []span{sp(1, layerEndpoint, 0, 110, 150), sp(1, layerEndpoint, 0, 140, 160)}, 50},
		{"contained in sibling", []span{sp(1, layerEndpoint, 0, 110, 190), sp(1, layerEndpoint, 0, 120, 130)}, 20},
	}
	for _, c := range cases {
		self, nested := selfTime(parent, c.children)
		if nested {
			t.Errorf("%s: reported nested", c.name)
		}
		if self != c.self {
			t.Errorf("%s: self = %d, want %d (only the covered union is subtracted)", c.name, self, c.self)
		}
	}
}

func TestAnalyseAttributesChildrenByLayerAndMember(t *testing.T) {
	spans := []span{
		// Request 0, routed: client > router > (policy, endpoint 1 > handler 1).
		sp(0, layerClient, -1, 0, 1000),
		sp(0, layerRouter, -1, 100, 900),
		sp(0, layerPolicy, -1, 110, 160),
		sp(0, layerEndpoint, 1, 200, 800),
		sp(0, layerHandler, 1, 300, 700),
		// Request 1: a retry after a shed lands on member 2.
		sp(1, layerClient, -1, 0, 1000),
		sp(1, layerRouter, -1, 10, 990),
		sp(1, layerPolicy, -1, 20, 30),
		{req: 1, layer: layerEndpoint, member: 0, status: statusShed, start: 40, end: 50},
		sp(1, layerEndpoint, 2, 100, 900),
		sp(1, layerHandler, 2, 200, 300),
		// Warm-up traffic is outside [0, n) and ignored.
		sp(warmupBase, layerClient, -1, 0, 5),
	}
	st := analyse(spans, 2, true)
	if st.unnested != 0 || st.orphans != 0 || st.badRefusals != 0 {
		t.Fatalf("unnested=%d orphans=%d bad=%d, want 0", st.unnested, st.orphans, st.badRefusals)
	}
	if got := st.self[layerClient]; len(got) != 2 || got[0] != 0.2 || got[1] != 0.02 {
		t.Fatalf("client self = %v µs, want [0.2 0.02]", got)
	}
	if got := st.self[layerRouter]; len(got) != 2 || got[0] != 0.15 || got[1] != 0.16 {
		t.Fatalf("router self = %v µs, want [0.15 0.16]", got)
	}
	if got := st.self[layerEndpoint]; len(got) != 3 {
		t.Fatalf("endpoint spans = %v, want 3", got)
	}
	if got := st.served[1]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("request 1 served by %v, want [2]", got)
	}
}

func TestAnalyseCountsOrphansAndBadRefusals(t *testing.T) {
	spans := []span{
		sp(0, layerClient, -1, 0, 100),
		sp(0, layerEndpoint, 0, 10, 90),
		sp(0, layerHandler, 1, 20, 30), // handler of a member with no endpoint span
		{req: 0, layer: layerEndpoint, member: 0, status: statusErr, start: 91, end: 95},
	}
	st := analyse(spans, 1, false)
	if st.orphans != 1 || st.badRefusals != 1 {
		t.Fatalf("orphans=%d bad=%d, want 1 1", st.orphans, st.badRefusals)
	}
}

func TestClassify(t *testing.T) {
	if classify(nil) != statusOK {
		t.Error("nil error not ok")
	}
	if classify(&faas.OverloadError{Fn: "f", RetryAfter: 1}) != statusShed {
		t.Error("hinted overload not a shed")
	}
	if classify(&faas.OverloadError{Fn: "f"}) != statusErr {
		t.Error("overload without Retry-After counted as a proper shed")
	}
	if classify(errors.New("boom")) != statusErr {
		t.Error("plain error not an error")
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	its := []item{textItem(testRNG(), "wordcount", 40), echoItem(testRNG(), 16), matmulItem(24), sleepItem(5)}
	for _, it := range its {
		for _, id := range []int32{0, 7, 123456789, warmupBase + 3} {
			if got := reqID(it.payload(id)); got != id {
				t.Errorf("%s: reqID(payload(%d)) = %d", it.fn, id, got)
			}
		}
	}
	if reqID([]byte("hello")) != -1 || reqID(nil) != -1 {
		t.Error("payload without an ID did not yield -1")
	}
}

func TestOracles(t *testing.T) {
	up := textItem(testRNG(), "upper", 30)
	p := up.payload(4)
	out := make([]byte, len(p))
	for i, c := range p {
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		out[i] = c
	}
	if !up.check(p, out) || up.check(p, p) {
		t.Error("upper oracle wrong")
	}
	mm := matmulItem(3)
	// Entries of A: (i mod 7)/2 over i = 0..8; of B: (i mod 5)/4. The
	// direct triple loop gives the reference.
	var a, b [9]float64
	for i := range a {
		a[i] = float64(i%7) * 0.5
		b[i] = float64(i%5) * 0.25
	}
	want := 0.0
	for i := 0; i < 3; i++ {
		for k := 0; k < 3; k++ {
			for j := 0; j < 3; j++ {
				want += a[i*3+k] * b[k*3+j]
			}
		}
	}
	if mm.checksum != want {
		t.Fatalf("matmul checksum = %v, want %v", mm.checksum, want)
	}
	h, _ := faas.BuiltinRegistry().Lookup("matmul")
	got, err := h(mm.payload(9))
	if err != nil || !mm.check(mm.payload(9), got) {
		t.Fatalf("matmul oracle rejects the handler's answer %s (%v)", got, err)
	}
	wc := textItem(testRNG(), "wordcount", 50)
	h, _ = faas.BuiltinRegistry().Lookup("wordcount")
	got, _ = h(wc.payload(1))
	if !wc.check(wc.payload(1), got) {
		t.Fatalf("wordcount oracle rejects the handler's answer %s", got)
	}
}

func testRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }
