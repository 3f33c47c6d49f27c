package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"continuum/internal/trace"
)

// fullRequest returns a Request with every field set to a non-zero
// value. requireAllFieldsSet keeps it honest when fields are added.
func fullRequest() *Request {
	return &Request{
		Op:      OpInvoke,
		ID:      "req-1",
		Fn:      "echo",
		Payload: []byte{0x00, 0xC5, '{', 0xFF}, // bytes that would confuse sniffing if mishandled
		Batch:   [][]byte{{1}, {}, {2, 3}},
		TraceID: "0123456789abcdef",
		SpanID:  "89abcdef",
		// Negative on purpose: the binary codec carries priority as a
		// signed varint.
		Priority: -1,
		Member: &MemberInfo{
			Name: "ep0", Addr: "127.0.0.1:9000", Capacity: 8,
			Functions: []string{"echo"}, Generation: 3,
			QueueDepth: 2, InFlight: 1, SlotLimit: 4,
			Cordoned: true, Draining: true,
		},
	}
}

// fullResponse returns a Response with every field set.
func fullResponse() *Response {
	return &Response{
		OK:           true,
		ID:           "req-1",
		Error:        "partial failure",
		Retryable:    true,
		RetryAfterMS: 40,
		Payload:      bytes.Repeat([]byte{0xC5}, 64),
		Batch:        [][]byte{{9, 8}, {7}},
		Names:        []string{"echo", "upper"},
		Stats: []EndpointStats{{
			Name: "ep0", Capacity: 4, Running: 1, Invocations: 10, ColdStarts: 2, WarmHits: 8,
		}},
		Top: []FnMetrics{{
			Endpoint: "ep0", Fn: "echo", Count: 10,
			P50: 0.001, P90: 0.002, P99: 0.003, ColdStarts: 2, WarmHits: 8,
		}},
		Spans: []trace.Span{{
			TraceID: "0123456789abcdef", SpanID: "89abcdef", Parent: "01234567",
			Service: "ep0", Name: "exec echo", Kind: trace.KindExec, Attempt: 1,
			Start: 100, End: 200, Err: "boom",
			Attrs: map[string]string{"container": "cold"},
		}},
		Members: []MemberStatus{{
			MemberInfo: MemberInfo{
				Name: "ep0", Addr: "127.0.0.1:9000", Capacity: 8,
				Functions: []string{"echo"}, Generation: 3,
				QueueDepth: 2, InFlight: 1, SlotLimit: 4,
				Cordoned: true, Draining: true,
			},
			State: "alive", AgeMS: 12,
		}},
		HeartbeatMS: 2000,
		Generation:  3,
	}
}

// requireAllFieldsSet fails if any field of v is its zero value — the
// guard that makes the round-trip test prove EVERY protocol field
// survives the codec, including fields added after this test was
// written (adding a field without extending the fixtures fails here).
func requireAllFieldsSet(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("%s fixture leaves field %s at its zero value; extend the fixture so the codec round-trip covers it",
				rv.Type().Name(), rv.Type().Field(i).Name)
		}
	}
}

// TestCodecRoundTripAllFields proves the binary codec round-trips every
// Request and Response field bit for bit.
func TestCodecRoundTripAllFields(t *testing.T) {
	t.Run("bin", func(t *testing.T) {
		for _, in := range []Frame{fullRequest(), fullResponse()} {
			requireAllFieldsSet(t, in)
			if got := roundTrip(t, in); !reflect.DeepEqual(in, got) {
				t.Fatalf("%T round trip mismatch:\nin:  %+v\nout: %+v", in, in, got)
			}
		}
	})
}

// roundTrip writes f as one frame and reads it back into a fresh value
// of the same type.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := reflect.New(reflect.TypeOf(f).Elem()).Interface().(Frame)
	n, err := ReadFrame(&buf, out)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 || n == 0 {
		t.Fatalf("ReadFrame consumed %d B and left %d B", n, buf.Len())
	}
	return out
}

// TestBinaryCodecPreservesNilVsEmpty: the blob sections distinguish a
// nil payload/batch from an empty one.
func TestBinaryCodecPreservesNilVsEmpty(t *testing.T) {
	cases := []Request{
		{Op: OpInvoke, ID: "a", Payload: nil, Batch: nil},
		{Op: OpInvoke, ID: "b", Payload: []byte{}, Batch: [][]byte{}},
		{Op: OpInvoke, ID: "c", Payload: []byte{}, Batch: [][]byte{nil, {}}},
	}
	for _, in := range cases {
		if out := roundTrip(t, &in); !reflect.DeepEqual(&in, out) {
			t.Fatalf("nil/empty not preserved:\nin:  %#v\nout: %#v", in, out)
		}
	}
}

// countingWriter tallies Write calls to prove frames are coalesced.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWrite: header and body must go out in ONE Write,
// so a frame is never torn across a deadline and a small call costs one
// syscall.
func TestWriteFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, fullRequest()); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("frame issued %d writes, want 1", w.writes)
	}
	// And the coalesced frame must still parse.
	if _, err := ReadFrame(&w.Buffer, new(Request)); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryFrameTooLarge: the size cap applies on encode.
func TestBinaryFrameTooLarge(t *testing.T) {
	req := &Request{Op: OpInvoke, Payload: make([]byte, MaxFrame+1)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, req); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// frameBytes encodes f as one complete frame.
func frameBytes(t testing.TB, f Frame) []byte {
	t.Helper()
	b, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withBody frames body under a matching length prefix.
func withBody(body []byte) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(len(body)))
}

// TestBinaryDecodeTruncated: every optional field is announced by a
// flag bit, so a body cut anywhere short of its end is an error — never
// a panic, and never a silently shorter request.
func TestBinaryDecodeTruncated(t *testing.T) {
	for _, in := range []Frame{fullRequest(), fullResponse()} {
		whole := frameBytes(t, in)
		for cut := 4; cut < len(whole); cut++ {
			// Rewrite the length prefix to match the truncated body, so the
			// decoder's own bounds checks are exercised, not just short reads.
			trunc := append(withBody(whole[4:cut]), whole[4:cut]...)
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface().(Frame)
			if _, err := ReadFrame(bytes.NewReader(trunc), out); err == nil {
				t.Fatalf("%T body cut at %d/%d accepted", in, cut-4, len(whole)-4)
			}
		}
	}
}

// TestDecodeRejectsWrongVersion: an empty body, a body from another
// protocol version, and an old-dialect JSON body all fail with
// ErrVersion before any field is read.
func TestDecodeRejectsWrongVersion(t *testing.T) {
	good := frameBytes(t, fullRequest())[4:]
	bodies := map[string][]byte{
		"empty":   {},
		"json":    []byte(`{"op":"ping","id":"x"}`),
		"v2":      append([]byte{0xC5}, good[1:]...),
		"next":    append([]byte{protoVersion + 1}, good[1:]...),
		"zero":    {0},
		"version": {protoVersion}, // right version, nothing after it
	}
	for name, body := range bodies {
		for _, f := range []Frame{new(Request), new(Response)} {
			_, err := ReadFrame(bytes.NewReader(append(withBody(body), body...)), f)
			if name == "version" {
				if err == nil {
					t.Fatalf("%s body into %T accepted", name, f)
				}
				continue
			}
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("%s body into %T: err = %v, want ErrVersion", name, f, err)
			}
		}
	}
}

// TestDecodeRejectsUnknownFlagsAndTrailingBytes: the flags byte is the
// whole description of a body, so bits it does not define and bytes
// past the last field are errors rather than silently skipped.
func TestDecodeRejectsUnknownFlagsAndTrailingBytes(t *testing.T) {
	for _, in := range []Frame{&Request{Op: OpPing, ID: "p"}, &Response{OK: true, ID: "p"}} {
		body := frameBytes(t, in)[4:]
		flagged := bytes.Clone(body)
		flagged[2] |= 1 << 7
		trailing := append(bytes.Clone(body), 0)
		for name, b := range map[string][]byte{"flag": flagged, "trailing": trailing} {
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface().(Frame)
			if _, err := ReadFrame(bytes.NewReader(append(withBody(b), b...)), out); err == nil {
				t.Fatalf("%T with %s accepted", in, name)
			}
		}
	}
}
