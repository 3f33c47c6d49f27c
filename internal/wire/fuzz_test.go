package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader — once as
// the raw stream and once as a body under a matching length prefix —
// into both frame types. Decoding must never panic, and whatever
// decodes must come back unchanged from an encode/decode round trip.
// The seed corpus in testdata/fuzz/FuzzDecodeFrame holds the all-fields
// fixtures, truncations of them, wrong version bytes, an empty body,
// huge uvarints and oversized batch counts.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameBytes(f, fullRequest())[4:])
	f.Add(frameBytes(f, fullResponse())[4:])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, append(withBody(data), data...)} {
			for _, v := range []Frame{new(Request), new(Response)} {
				if _, err := ReadFrame(bytes.NewReader(in), v); err != nil {
					continue
				}
				if got := roundTrip(t, v); !sameFrame(v, got) {
					t.Fatalf("%T round trip mismatch:\nin:  %+v\nout: %+v", v, v, got)
				}
			}
		}
	})
}

// sameFrame compares two decoded frames. Natively coded fields must be
// identical; the JSON-carried ones (the member body, the response
// extension) are compared by their JSON encoding, because JSON does not
// tell a nil slice or map from an empty one.
func sameFrame(a, b Frame) bool {
	switch a := a.(type) {
	case *Request:
		b := b.(*Request)
		na, nb := *a, *b
		na.Member, nb.Member = nil, nil
		return reflect.DeepEqual(na, nb) && sameJSON(a.Member, b.Member)
	case *Response:
		b := b.(*Response)
		ext := func(r *Response) respExt {
			return respExt{r.Names, r.Stats, r.Top, r.Spans, r.RetryAfterMS, r.Members, r.HeartbeatMS, r.Generation}
		}
		native := func(r *Response) Response {
			return Response{OK: r.OK, ID: r.ID, Error: r.Error, Retryable: r.Retryable, Payload: r.Payload, Batch: r.Batch}
		}
		return reflect.DeepEqual(native(a), native(b)) && sameJSON(ext(a), ext(b))
	}
	return false
}

func sameJSON(a, b any) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}
