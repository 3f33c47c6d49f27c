package netsim

import (
	"math"
	"testing"

	"continuum/internal/sim"
)

// TestSetLinkParamsReroutes: degrading a link must invalidate the cached
// shortest-path trees so traffic reroutes, and restoring it must bring
// the original path back.
func TestSetLinkParamsReroutes(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 3)
	// Two routes 0->2: direct (5ms) and via 1 (2x 4ms = 8ms).
	direct, _ := n.AddDuplexLink(0, 2, 0.005, 1e9)
	n.AddDuplexLink(0, 1, 0.004, 1e9)
	n.AddDuplexLink(1, 2, 0.004, 1e9)

	if lat := n.Latency(0, 2); math.Abs(lat-0.005) > 1e-12 {
		t.Fatalf("baseline latency %v, want direct 5ms", lat)
	}

	// 10x degradation: direct becomes 50ms, the 8ms detour must win. This
	// only happens if SetLinkParams drops the cached SPT.
	n.SetLinkParams(direct, 0.050, 1e8)
	if lat := n.Latency(0, 2); math.Abs(lat-0.008) > 1e-12 {
		t.Fatalf("latency after degrade %v, want rerouted 8ms", lat)
	}
	if direct.Latency != 0.050 || direct.Capacity != 1e8 {
		t.Fatalf("link params not applied: %+v", direct)
	}

	n.SetLinkParams(direct, 0.005, 1e9)
	if lat := n.Latency(0, 2); math.Abs(lat-0.005) > 1e-12 {
		t.Fatalf("latency after restore %v, want direct 5ms again", lat)
	}
}

func TestSetLinkParamsPanicsOnBadValues(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 2)
	l, _ := n.AddDuplexLink(0, 1, 0.001, 1e9)
	for name, fn := range map[string]func(){
		"negative latency": func() { n.SetLinkParams(l, -1, 1e9) },
		"zero capacity":    func() { n.SetLinkParams(l, 0.001, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestVersionTracksTopologyChanges: Version moves on every vertex, link
// and retune, and on nothing else, so values derived from route queries
// can be cached against it.
func TestVersionTracksTopologyChanges(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 2)
	v := n.Version()
	step := func(what string, fn func(), moves bool) {
		t.Helper()
		fn()
		if got := n.Version(); (got != v) != moves {
			t.Fatalf("%s: version %d -> %d, want moved=%v", what, v, got, moves)
		}
		v = n.Version()
	}
	var l *Link
	step("AddLink", func() { l, _ = n.AddDuplexLink(0, 1, 0.001, 1e9) }, true)
	step("queries", func() { n.Latency(0, 1); n.MessageTime(1, 0, 1e3); n.Reach(0) }, false)
	step("AddNode", func() { n.AddNode() }, true)
	step("SetLinkParams", func() { n.SetLinkParams(l, 0.002, 1e8) }, true)
	if lat := n.Latency(0, 1); lat != 0.002 {
		t.Fatalf("latency after retune %v, want 0.002 from the refilled tree", lat)
	}
}
