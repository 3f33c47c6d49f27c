package wire

// Frame codec: every frame on the wire is a 4-byte big-endian length
// followed by a binary body. The protocol has one dialect; its version
// is the body's first byte, so there is no handshake:
//
//	[0]      protocol version (protoVersion). A decoder rejects any
//	         other value, and an empty body, with ErrVersion; the
//	         server then drops the connection.
//	[1]      kind: 0x01 request, 0x02 response
//	[2]      flags
//	Request  flags: bit0 trace, bit1 priority, bit2 member.
//	         str Op, str ID, str Fn, blob Payload, batch, then
//	         str TraceID, str SpanID   when bit0 is set,
//	         varint Priority           when bit1 is set,
//	         str JSON(MemberInfo)      when bit2 is set.
//	Response flags: bit0 OK, bit1 Retryable, bit2 extension.
//	         str ID, str Error, blob Payload, batch, then
//	         str JSON(extension)       when bit2 is set, carrying the
//	         rare list/stats/top/spans/retry-after/federation fields.
//
// where str is uvarint length + bytes, blob is the same but with
// uvarint 0 meaning nil and length+1 otherwise (nil and empty payloads
// survive a round trip distinctly), and batch is uvarint 0 = nil or
// count+1 followed by one blob per item. An untraced, normal-priority
// invoke sets no flag and carries no optional bytes. A body must end
// exactly where its last field ends: unknown flag bits and trailing
// bytes are errors. A protocol field added later must be added here
// too; the codec round-trip test's all-fields guard fails until it is.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"continuum/internal/trace"
)

// protoVersion is byte 0 of every frame body. It changes whenever the
// layout does; there is no negotiation, so both ends must agree.
const protoVersion = 3

// ErrVersion is returned for a frame body that is empty or does not
// start with this build's protocol version.
var ErrVersion = errors.New("wire: unsupported protocol version")

// Frame is one protocol message: *Request or *Response, the only types
// WriteFrame and ReadFrame carry.
type Frame interface {
	appendBody(dst []byte) ([]byte, error)
	decodeBody(body []byte) error
}

// maxPooledBuf caps the capacity of buffers returned to the frame pool,
// so one oversized frame cannot pin megabytes for the process lifetime.
const maxPooledBuf = 1 << 20

// framePool recycles encode/decode scratch buffers: the steady-state
// invoke path allocates no frame buffers at all.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return framePool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	framePool.Put(bp)
}

// WriteFrame writes f as one length-prefixed frame. The header and body
// are coalesced into a single Write from a pooled buffer, so a frame is
// never torn across a write deadline and a small call costs one syscall.
func WriteFrame(w io.Writer, f Frame) error {
	bp := getBuf()
	frame, err := appendFrame((*bp)[:0], f)
	if err == nil {
		_, err = w.Write(frame)
	}
	*bp = frame
	putBuf(bp)
	return err
}

// appendFrame appends one complete frame — length prefix and encoded
// body — to dst. This is the shared encode path: WriteFrame issues the
// result as one Write, and groupWriter queues it for a batched one.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	dst, err := f.appendBody(dst)
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(n))
	return dst, nil
}

// ReadFrame reads one frame into f and returns its wire size (header
// and body), so per-request byte accounting stays exact when the server
// reads through a buffered reader.
func ReadFrame(r io.Reader, f Frame) (int64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	bp := getBuf()
	defer putBuf(bp)
	buf := *bp
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	*bp = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, err
	}
	if err := f.decodeBody(buf); err != nil {
		return 0, err
	}
	return int64(4 + n), nil
}

// Frame kinds (byte 1).
const (
	kindRequest  = 0x01
	kindResponse = 0x02
)

// Request flag bits: each optional field is present exactly when its
// bit is set.
const (
	reqFlagTrace    = 1 << 0
	reqFlagPriority = 1 << 1
	reqFlagMember   = 1 << 2
	reqFlagsKnown   = reqFlagTrace | reqFlagPriority | reqFlagMember
)

// Response flag bits.
const (
	respFlagOK        = 1 << 0
	respFlagRetryable = 1 << 1
	respFlagExt       = 1 << 2
	respFlagsKnown    = respFlagOK | respFlagRetryable | respFlagExt
)

// respExt carries the rare Response fields (list/stats/top/trace
// results, Retry-After, federation) as a JSON extension section,
// keeping struct-heavy encoding off the invoke hot path.
type respExt struct {
	Names        []string        `json:"names,omitempty"`
	Stats        []EndpointStats `json:"stats,omitempty"`
	Top          []FnMetrics     `json:"top,omitempty"`
	Spans        []trace.Span    `json:"spans,omitempty"`
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
	Members      []MemberStatus  `json:"members,omitempty"`
	HeartbeatMS  int64           `json:"heartbeat_ms,omitempty"`
	Generation   int64           `json:"generation,omitempty"`
}

func (r *Request) appendBody(buf []byte) ([]byte, error) {
	var flags byte
	if r.TraceID != "" || r.SpanID != "" {
		flags |= reqFlagTrace
	}
	if r.Priority != 0 {
		flags |= reqFlagPriority
	}
	// The member body is JSON: control frames are rare and tiny, so
	// reflection there costs nothing the invoke hot path ever sees.
	var member []byte
	if r.Member != nil {
		var err error
		if member, err = json.Marshal(r.Member); err != nil {
			return buf, fmt.Errorf("wire: marshal member: %w", err)
		}
		flags |= reqFlagMember
	}
	buf = append(buf, protoVersion, kindRequest, flags)
	buf = appendStr(buf, string(r.Op))
	buf = appendStr(buf, r.ID)
	buf = appendStr(buf, r.Fn)
	buf = appendBlob(buf, r.Payload)
	buf = appendBatch(buf, r.Batch)
	if flags&reqFlagTrace != 0 {
		buf = appendStr(buf, r.TraceID)
		buf = appendStr(buf, r.SpanID)
	}
	if flags&reqFlagPriority != 0 {
		buf = binary.AppendVarint(buf, int64(r.Priority))
	}
	if flags&reqFlagMember != 0 {
		buf = appendStr(buf, member)
	}
	return buf, nil
}

func (r *Request) decodeBody(b []byte) error {
	flags, b, err := takeHeader(b, kindRequest, reqFlagsKnown)
	if err != nil {
		return err
	}
	*r = Request{}
	var op []byte
	if op, b, err = takeStrBytes(b); err != nil {
		return err
	}
	r.Op = internOp(op)
	if r.ID, b, err = takeStr(b); err != nil {
		return err
	}
	if r.Fn, b, err = takeStr(b); err != nil {
		return err
	}
	if r.Payload, b, err = takeBlob(b); err != nil {
		return err
	}
	if r.Batch, b, err = takeBatch(b); err != nil {
		return err
	}
	if flags&reqFlagTrace != 0 {
		if r.TraceID, b, err = takeStr(b); err != nil {
			return err
		}
		if r.SpanID, b, err = takeStr(b); err != nil {
			return err
		}
	}
	if flags&reqFlagPriority != 0 {
		p, k := binary.Varint(b)
		if k <= 0 {
			return fmt.Errorf("wire: frame: bad priority")
		}
		r.Priority = int(p)
		b = b[k:]
	}
	if flags&reqFlagMember != 0 {
		r.Member = new(MemberInfo)
		if b, err = takeJSON(b, r.Member); err != nil {
			return err
		}
	}
	return takeEnd(b)
}

func (r *Response) appendBody(buf []byte) ([]byte, error) {
	var flags byte
	if r.OK {
		flags |= respFlagOK
	}
	if r.Retryable {
		flags |= respFlagRetryable
	}
	var ext []byte
	if r.Names != nil || r.Stats != nil || r.Top != nil || r.Spans != nil ||
		r.RetryAfterMS != 0 || r.Members != nil || r.HeartbeatMS != 0 || r.Generation != 0 {
		var err error
		if ext, err = json.Marshal(respExt{r.Names, r.Stats, r.Top, r.Spans, r.RetryAfterMS, r.Members, r.HeartbeatMS, r.Generation}); err != nil {
			return buf, fmt.Errorf("wire: marshal extension: %w", err)
		}
		flags |= respFlagExt
	}
	buf = append(buf, protoVersion, kindResponse, flags)
	buf = appendStr(buf, r.ID)
	buf = appendStr(buf, r.Error)
	buf = appendBlob(buf, r.Payload)
	buf = appendBatch(buf, r.Batch)
	if flags&respFlagExt != 0 {
		buf = appendStr(buf, ext)
	}
	return buf, nil
}

func (r *Response) decodeBody(b []byte) error {
	flags, b, err := takeHeader(b, kindResponse, respFlagsKnown)
	if err != nil {
		return err
	}
	*r = Response{OK: flags&respFlagOK != 0, Retryable: flags&respFlagRetryable != 0}
	if r.ID, b, err = takeStr(b); err != nil {
		return err
	}
	if r.Error, b, err = takeStr(b); err != nil {
		return err
	}
	if r.Payload, b, err = takeBlob(b); err != nil {
		return err
	}
	if r.Batch, b, err = takeBatch(b); err != nil {
		return err
	}
	if flags&respFlagExt != 0 {
		var ext respExt
		if b, err = takeJSON(b, &ext); err != nil {
			return err
		}
		r.Names, r.Stats, r.Top, r.Spans = ext.Names, ext.Stats, ext.Top, ext.Spans
		r.RetryAfterMS = ext.RetryAfterMS
		r.Members, r.HeartbeatMS, r.Generation = ext.Members, ext.HeartbeatMS, ext.Generation
	}
	return takeEnd(b)
}

// takeHeader checks the version and kind bytes and returns the flags
// byte, rejecting bits outside known, and the fields after it.
func takeHeader(b []byte, kind, known byte) (byte, []byte, error) {
	if len(b) == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame body", ErrVersion)
	}
	if b[0] != protoVersion {
		return 0, nil, fmt.Errorf("%w %d (this build speaks %d)", ErrVersion, b[0], protoVersion)
	}
	if len(b) < 3 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if b[1] != kind {
		return 0, nil, fmt.Errorf("wire: frame kind %#x, want %#x", b[1], kind)
	}
	if b[2]&^known != 0 {
		return 0, nil, fmt.Errorf("wire: frame: unknown flags %#x", b[2]&^known)
	}
	return b[2], b[3:], nil
}

// takeEnd rejects bytes after a body's last field.
func takeEnd(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("wire: frame: %d trailing bytes", len(b))
	}
	return nil
}

// appendStr encodes one string (or byte slice, without converting it)
// as uvarint length + bytes.
func appendStr[S string | []byte](buf []byte, s S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// takeStrBytes decodes one appendStr section as a view into the frame
// buffer — valid only until the buffer returns to the pool, so callers
// must intern or copy before keeping it.
func takeStrBytes(b []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("wire: frame: bad string length")
	}
	b = b[k:]
	if uint64(len(b)) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return b[:n], b[n:], nil
}

// takeStr decodes one appendStr section, copying out of the pooled
// frame buffer.
func takeStr(b []byte) (string, []byte, error) {
	s, rest, err := takeStrBytes(b)
	return string(s), rest, err
}

// takeJSON decodes one appendStr section holding a JSON document into v.
func takeJSON(b []byte, v any) ([]byte, error) {
	doc, rest, err := takeStrBytes(b)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(doc, v); err != nil {
		return nil, fmt.Errorf("wire: unmarshal %T: %w", v, err)
	}
	return rest, nil
}

// appendBatch encodes a batch: uvarint 0 = nil, else count+1 followed
// by one blob per item.
func appendBatch(buf []byte, batch [][]byte) []byte {
	if batch == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(batch))+1)
	for _, b := range batch {
		buf = appendBlob(buf, b)
	}
	return buf
}

// takeBatch decodes one appendBatch section.
func takeBatch(b []byte) ([][]byte, []byte, error) {
	count, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("wire: frame: bad batch count")
	}
	b = b[k:]
	if count == 0 {
		return nil, b, nil
	}
	count--
	// Every item costs at least one byte, so a count beyond the
	// remaining bytes is corrupt — reject it before allocating.
	if count > uint64(len(b)) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	batch := make([][]byte, count)
	var err error
	for i := range batch {
		if batch[i], b, err = takeBlob(b); err != nil {
			return nil, nil, err
		}
	}
	return batch, b, nil
}

// appendBlob encodes one byte slice, distinguishing nil from empty:
// uvarint 0 means nil, else length+1 followed by the bytes.
func appendBlob(buf, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b))+1)
	return append(buf, b...)
}

// takeBlob decodes one appendBlob section. The returned slice is a copy
// — the input buffer goes back to the pool after decoding.
func takeBlob(b []byte) (blob, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("wire: frame: bad blob length")
	}
	b = b[k:]
	if n == 0 {
		return nil, b, nil
	}
	n--
	if uint64(len(b)) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return bytes.Clone(b[:n]), b[n:], nil
}

// internOp maps the protocol's known ops back to their constants so
// decoding a request allocates no string for the op field.
func internOp(s []byte) Op {
	for _, op := range knownOps {
		if string(s) == string(op) { // compiled without allocating
			return op
		}
	}
	return Op(s)
}
