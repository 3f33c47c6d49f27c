package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Every payload carries its request ID so the spans recorded at each
// layer of one request share an identifier: text payloads (echo, upper,
// wordcount) start with the ID as their first word, JSON payloads
// (matmul, sleep) carry it as their first field. The ID is "r" and nine
// digits, so both forms have a fixed layout.
const (
	idDigits   = 9
	idLen      = 1 + idDigits
	jsonIDHead = `{"id":"`
	// warmupBase numbers warm-up requests apart from measured ones, so
	// the traced run can drop their spans.
	warmupBase = 900_000_000
)

// reqID recovers the request ID a payload carries, or -1.
func reqID(p []byte) int32 {
	off := 0
	if len(p) > 0 && p[0] == '{' {
		off = len(jsonIDHead)
	}
	if len(p) < off+idLen || p[off] != 'r' {
		return -1
	}
	id := int32(0)
	for _, c := range p[off+1 : off+idLen] {
		if c < '0' || c > '9' {
			return -1
		}
		id = id*10 + int32(c-'0')
	}
	return id
}

// appendID appends "r" and id as nine zero-padded digits.
func appendID(b []byte, id int32) []byte {
	var d [idDigits]byte
	for i := idDigits - 1; i >= 0; i-- {
		d[i] = byte('0' + id%10)
		id /= 10
	}
	return append(append(b, 'r'), d[:]...)
}

// item is one distinct input a workload draws requests from. A request's
// payload is the item's body with the request ID spliced in.
type item struct {
	fn   string
	json bool   // JSON payload: body is the object after the id field
	body []byte // text payload: the bytes after "<id> "
	key  int    // the item's index: the routing key population
	// words is the body's word count (wordcount), checksum the expected
	// matmul result.
	words    int
	checksum float64
}

// payload builds the request payload for id.
func (it *item) payload(id int32) []byte {
	if it.json {
		b := make([]byte, 0, len(jsonIDHead)+idLen+1+len(it.body))
		b = appendID(append(b, jsonIDHead...), id)
		return append(append(b, '"'), it.body...)
	}
	b := make([]byte, 0, idLen+1+len(it.body))
	b = appendID(b, id)
	return append(append(b, ' '), it.body...)
}

// check is the correctness oracle: it reports whether out is the right
// answer to payload, computed without the product's code.
func (it *item) check(payload, out []byte) bool {
	switch it.fn {
	case "echo":
		return bytes.Equal(out, payload)
	case "upper":
		if len(out) != len(payload) {
			return false
		}
		for i, c := range payload {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if out[i] != c {
				return false
			}
		}
		return true
	case "wordcount":
		var got struct{ Words, Bytes int }
		// The ID is the first word.
		return json.Unmarshal(out, &got) == nil && got.Words == it.words+1 && got.Bytes == len(payload)
	case "matmul":
		var got struct{ Checksum float64 }
		return json.Unmarshal(out, &got) == nil && got.Checksum == it.checksum
	case "sleep":
		var got struct{ OK bool }
		return json.Unmarshal(out, &got) == nil && got.OK
	}
	return false
}

// textItem is a wordcount or upper input: lowercase words of 3-8 letters
// separated by single spaces, about size bytes long.
func textItem(rng *rand.Rand, fn string, size int) item {
	b := make([]byte, 0, size+8)
	words := 0
	for len(b) < size {
		if words > 0 {
			b = append(b, ' ')
		}
		for n := 3 + rng.Intn(6); n > 0; n-- {
			b = append(b, byte('a'+rng.Intn(26)))
		}
		words++
	}
	return item{fn: fn, body: b, words: words}
}

// echoItem is an echo input of size random bytes (any byte value, so the
// codecs must be binary-safe).
func echoItem(rng *rand.Rand, size int) item {
	b := make([]byte, size)
	rng.Read(b)
	return item{fn: "echo", body: b}
}

// matmulItem asks for an n×n product and records the checksum the
// product must return.
func matmulItem(n int) item {
	return item{fn: "matmul", json: true, body: []byte(fmt.Sprintf(`,"n":%d}`, n)), checksum: matmulChecksum(n)}
}

// matmulChecksum is the sum of every entry of A·B for the matrices the
// matmul handler builds (a[i] = (i mod 7)/2, b[i] = (i mod 5)/4, row-major
// n×n), computed as Σ_k colsum_k(A)·rowsum_k(B) in O(n²) rather than by
// multiplying. Every term is a multiple of 1/8 far below 2^50, so both
// summation orders are exact and the comparison can be exact too.
func matmulChecksum(n int) float64 {
	sum := 0.0
	for k := 0; k < n; k++ {
		col, row := 0.0, 0.0
		for i := 0; i < n; i++ {
			col += float64((i*n+k)%7) * 0.5
			row += float64((k*n+i)%5) * 0.25
		}
		sum += col * row
	}
	return sum
}

// sleepItem asks the sleep handler to idle for ms milliseconds.
func sleepItem(ms int) item {
	return item{fn: "sleep", json: true, body: []byte(fmt.Sprintf(`,"ms":%d}`, ms))}
}

// logUniform draws an integer size log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	return sizeAt(rng.Float64(), lo, hi)
}

// sizeAt maps u in [0, 1) onto [lo, hi] on a log scale.
func sizeAt(u float64, lo, hi int) int {
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), u)))
}
