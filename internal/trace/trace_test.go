package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleTrace() *Tracer {
	t := New(0)
	t.Record(0, TaskStart, "gw", "a")
	t.Record(2, TaskEnd, "gw", "a")
	t.Record(1, TaskStart, "cloud", "b")
	t.Record(5, TaskEnd, "cloud", "b")
	t.Record(6, TaskStart, "gw", "c")
	t.Record(8, TaskEnd, "gw", "c")
	return t
}

func TestRecordAndFilter(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 6 {
		t.Fatalf("Len = %d", tr.Len())
	}
	starts := tr.Filter(TaskStart)
	if len(starts) != 3 {
		t.Fatalf("starts = %d", len(starts))
	}
	if starts[0].Entity != "gw" || starts[1].Entity != "cloud" {
		t.Fatal("filter order broken")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(1, TaskStart, "x", "") // must not panic
}

func TestLimitDropsNewest(t *testing.T) {
	tr := New(2)
	tr.Record(1, TaskStart, "a", "")
	tr.Record(2, TaskStart, "b", "")
	tr.Record(3, TaskStart, "c", "")
	if tr.Len() != 2 || tr.Dropped != 1 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped)
	}
	if tr.Events()[0].Entity != "a" {
		t.Fatal("oldest event lost")
	}
}

func TestEntitiesSorted(t *testing.T) {
	tr := sampleTrace()
	ents := tr.Entities()
	if len(ents) != 2 || ents[0] != "cloud" || ents[1] != "gw" {
		t.Fatalf("Entities = %v", ents)
	}
}

func TestSpan(t *testing.T) {
	tr := sampleTrace()
	lo, hi := tr.Span()
	if lo != 0 || hi != 8 {
		t.Fatalf("Span = %v,%v", lo, hi)
	}
	empty := New(0)
	lo, hi = empty.Span()
	if lo != 0 || hi != 0 {
		t.Fatal("empty span not zero")
	}
}

func TestUtilization(t *testing.T) {
	tr := sampleTrace()
	// gw busy [0,2] and [6,8] over [0,8]: 4/8 = 0.5.
	if u := tr.Utilization("gw", 0, 8); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("gw utilization = %v", u)
	}
	// cloud busy [1,5] over [0,8]: 0.5.
	if u := tr.Utilization("cloud", 0, 8); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("cloud utilization = %v", u)
	}
	// Window clipping: gw over [1,7] -> busy [1,2] + [6,7] = 2/6.
	if u := tr.Utilization("gw", 1, 7); math.Abs(u-2.0/6.0) > 1e-12 {
		t.Fatalf("clipped utilization = %v", u)
	}
	if tr.Utilization("gw", 5, 5) != 0 {
		t.Fatal("degenerate window not zero")
	}
}

func TestUtilizationNestedTasks(t *testing.T) {
	tr := New(0)
	// Two overlapping tasks on one node: busy [0,4] once, not twice.
	tr.Record(0, TaskStart, "n", "a")
	tr.Record(1, TaskStart, "n", "b")
	tr.Record(3, TaskEnd, "n", "a")
	tr.Record(4, TaskEnd, "n", "b")
	if u := tr.Utilization("n", 0, 4); math.Abs(u-1) > 1e-12 {
		t.Fatalf("nested utilization = %v, want 1", u)
	}
}

func TestUnmatchedStartExtendsToEnd(t *testing.T) {
	tr := New(0)
	tr.Record(0, TaskStart, "n", "a")
	tr.Record(10, TaskEnd, "m", "other") // extends span to 10
	if u := tr.Utilization("n", 0, 10); math.Abs(u-1) > 1e-12 {
		t.Fatalf("cut-off utilization = %v, want 1", u)
	}
}

func TestGantt(t *testing.T) {
	tr := sampleTrace()
	g := tr.Gantt(16)
	if !strings.Contains(g, "gw") || !strings.Contains(g, "cloud") {
		t.Fatalf("gantt missing lanes:\n%s", g)
	}
	if !strings.Contains(g, "#") || !strings.Contains(g, ".") {
		t.Fatalf("gantt missing marks:\n%s", g)
	}
	if New(0).Gantt(10) != "" {
		t.Fatal("empty gantt not empty")
	}
}

func TestGanttPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width accepted")
		}
	}()
	sampleTrace().Gantt(0)
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip %d != %d", back.Len(), tr.Len())
	}
	for i, e := range back.Events() {
		if e != tr.Events()[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, e, tr.Events()[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{oops")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadJSONLMalformedMidStream(t *testing.T) {
	// A valid line followed by a malformed one must error, not silently
	// truncate: partial traces would skew utilization analysis.
	var buf bytes.Buffer
	tr := New(0)
	tr.Record(1, TaskStart, "n", "a")
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"t": "not-a-number"}` + "\n")
	if _, err := ReadJSONL(&buf); err == nil {
		t.Fatal("malformed mid-stream line accepted")
	}
}

func TestJSONLAttemptRoundTrip(t *testing.T) {
	tr := New(0)
	tr.RecordAttempt(0, TaskStart, "gw", "j", 0)
	tr.RecordAttempt(1, Failure, "gw", "j lost", 0)
	tr.RecordAttempt(2, TaskStart, "gw", "j", 1)
	tr.RecordAttempt(3, TaskEnd, "gw", "j", 1)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Attempt 0 must be omitted from the wire form (old readers keep
	// working); non-zero attempts must survive the round trip.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if strings.Contains(lines[0], "attempt") {
		t.Fatalf("attempt 0 serialized: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"attempt":1`) {
		t.Fatalf("attempt 1 lost: %s", lines[2])
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range back.Events() {
		if e != tr.Events()[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, e, tr.Events()[i])
		}
	}
}

// TestGanttGoldenNarrow pins the exact rendering of a small fixed trace
// at a width too narrow to fit both axis labels — the regression case
// where the footer pad went negative and left-shifted the end label.
func TestGanttGoldenNarrow(t *testing.T) {
	tr := New(0)
	tr.Record(0, TaskStart, "gw", "a")
	tr.Record(8, TaskEnd, "gw", "a")
	got := tr.Gantt(4)
	want := "" +
		"gw |####|\n" +
		"    0.00s 8.00s\n"
	if got != want {
		t.Fatalf("golden mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
	// Wide enough to fit both labels: hi right-aligns to the lane edge.
	got = tr.Gantt(16)
	want = "" +
		"gw |################|\n" +
		"    0.00s      8.00s\n"
	if got != want {
		t.Fatalf("golden mismatch (wide):\ngot:\n%q\nwant:\n%q", got, want)
	}
	// At any width the axis keeps both labels, in order, separated by at
	// least one space (the old negative pad glued or reordered them).
	for _, w := range []int{1, 2, 3, 5, 9, 12} {
		lines := strings.Split(strings.TrimRight(tr.Gantt(w), "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("width %d: %d lines", w, len(lines))
		}
		if !strings.Contains(lines[1], "0.00s ") || !strings.HasSuffix(lines[1], "8.00s") {
			t.Fatalf("width %d: malformed axis %q", w, lines[1])
		}
	}
}

// TestGrowReservesWithinLimit: Grow makes room without recording
// anything, never past the tracer's limit, and a nil tracer ignores it.
func TestGrowReservesWithinLimit(t *testing.T) {
	tr := New(10)
	tr.Record(0, TaskStart, "n", "")
	tr.Grow(100)
	if tr.Len() != 1 || cap(tr.Events()) < 10 || cap(tr.Events()) >= 100 {
		t.Fatalf("after Grow(100) under limit 10: len %d cap %d", tr.Len(), cap(tr.Events()))
	}
	unbounded := New(0)
	unbounded.Grow(1000)
	if c := cap(unbounded.Events()); c < 1000 {
		t.Fatalf("unbounded Grow(1000): cap %d", c)
	}
	var none *Tracer
	none.Grow(10)
}
