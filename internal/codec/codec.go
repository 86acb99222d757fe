// Package codec is the byte kit every hand-written format here reads and
// writes through: minisql's log records and checkpoints, replica's frames and
// the service's wire messages. Each format keeps its own layout, size bound
// and sentinel error; this package owns the primitives — varints, bytes,
// strings, bools, float64s — and the uvarint-length-prefixed frame.
//
// Bounds. Every byte a Reader or ReadFrame sees came from a disk or a socket,
// so nothing is sized from a claim the bytes cannot back, and one rule says
// how: a count of items is read with Count(minItem), minItem being the fewest
// bytes one item's encoding can take, which refuses any claim beyond
// Len()/minItem. A slice or map made from the count is then bounded by the
// bytes left, times the item's size over minItem. A length is read with Bytes
// or String, which refuse one beyond Len(), and a body on a stream is read by
// ReadBody — a frame's by ReadFrame, which first refuses a length beyond the
// format's bound — which grows its buffer only as bytes arrive.
//
// Text. String copies a string's bytes to the end of a Text arena's current
// chunk and returns a string over the copy, so a frame's or a record's text
// costs one allocation per chunk, not one per field. A chunk holds only text
// bytes, each written once, before the string over it is returned, and is
// sized from the bytes present, never from a claim: max(n, min(4 KiB, bytes
// left)) for an n-byte string the current chunk cannot take. A decoded string
// thus pins at most one chunk of text bytes. The decoder owning a stream owns
// its Text and hands it by pointer to each Reader over the stream, so one
// frame's leftover chunk serves the next; a Text copied with a Reader value
// would let two copies append over each other's free bytes, and one shared
// between goroutines would race. NewReader's Reader makes its own at its
// first string.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Reader reads fields from the front of a byte slice. The first read the
// bytes cannot back fails it: Err then returns the sentinel error its format
// passed to NewReader, Len is 0 and every later read returns the zero value,
// so a decoder is straight-line field reads and checks Err where it must stop.
type Reader struct {
	b        []byte
	pos      int // reads advance pos, never b: no pointer write, no GC write barrier
	err, bad error
	text     *Text
}

// NewReader returns a Reader over b that fails with bad, which must not be nil.
func NewReader(b []byte, bad error) Reader { return Reader{b: b, bad: bad} }

// Text is the arena a stream's strings are carved from; its zero value is
// ready to use.
type Text struct{ chunk []byte }

// textChunk is the most a chunk is sized for when the string fits in less.
const textChunk = 4 << 10

// Reader returns a Reader over b that fails with bad and carves its strings
// from t.
func (t *Text) Reader(b []byte, bad error) Reader { return Reader{b: b, bad: bad, text: t} }

// carve copies b to the end of the current chunk — a fresh one of
// max(len(b), min(textChunk, left)) bytes when it does not fit — and returns
// a string over the copy.
func (t *Text) carve(b []byte, left int) string {
	if len(b) > cap(t.chunk)-len(t.chunk) {
		t.chunk = make([]byte, 0, max(len(b), min(textChunk, left)))
	}
	start := len(t.chunk)
	t.chunk = append(t.chunk, b...)
	return unsafe.String(&t.chunk[start], len(b))
}

// Err is nil until a read fails, then the Reader's sentinel error.
func (r *Reader) Err() error { return r.err }

// Len is how many bytes are left to read.
func (r *Reader) Len() int { return len(r.b) - r.pos }

// Fail fails the Reader, for a field its format refuses.
func (r *Reader) Fail() { r.pos, r.err = len(r.b), r.bad }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a zigzag signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.pos += n
	return v
}

// Count reads a uvarint count of items that each take at least minItem (> 0)
// bytes, failing on a count the bytes left cannot back.
func (r *Reader) Count(minItem int) int {
	n := r.Uvarint()
	if hi, lo := bits.Mul64(n, uint64(minItem)); hi == 0 && lo <= uint64(r.Len()) {
		return int(n)
	}
	r.Fail()
	return 0
}

// next reads n bytes, which alias the input with capacity n; nil on failure.
func (r *Reader) next(n uint64) []byte {
	if n > uint64(r.Len()) {
		r.Fail()
		return nil
	}
	start := r.pos
	r.pos += int(n)
	return r.b[start:r.pos:r.pos]
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte: any but 0 is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Float64 reads the 8 little-endian bytes of an IEEE 754 double.
func (r *Reader) Float64() float64 {
	if b := r.next(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Bytes reads a uvarint length and that many bytes, which alias the input
// with capacity capped at their length.
func (r *Reader) Bytes() []byte { return r.next(r.Uvarint()) }

// String reads Bytes' form as a string carved from the Reader's Text: it
// holds a copy, not the input, so it outlives the bytes it was read from.
func (r *Reader) String() string {
	left := r.Len()
	b := r.Bytes()
	if len(b) == 0 {
		return ""
	}
	if r.text == nil {
		r.text = new(Text)
	}
	return r.text.carve(b, left)
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the 8 little-endian bytes of v.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBytes appends a uvarint length and v.
func AppendBytes(b, v []byte) []byte { return append(AppendUvarint(b, uint64(len(v))), v...) }

// AppendString appends a uvarint length and the bytes of s.
func AppendString(b []byte, s string) []byte {
	return append(AppendUvarint(b, uint64(len(s))), s...)
}

// A frame is a uvarint body length and the body. The frame functions reuse
// one buffer per connection side, kept while it is at most KeepBytes: a
// larger body (a frame or record holding one record past that size) gets its
// own allocation, which nothing pins once it is handled.
const (
	KeepBytes = 1 << 20
	room      = binary.MaxVarintLen64
)

// BeginFrame empties buf behind room for the longest length prefix. Append
// the frame's body to the result and hand it to WriteFrame.
func BeginFrame(buf []byte) []byte { return append(buf[:0], make([]byte, room)...) }

// WriteFrame puts the length prefix into the room in front of the body
// begun by BeginFrame — no second copy — writes the frame with one Write and
// keeps b in *buf for the next frame.
func WriteFrame(w io.Writer, buf *[]byte, b []byte) error {
	var pre [room]byte
	k := binary.PutUvarint(pre[:], uint64(len(b)-room))
	copy(b[room-k:], pre[:k])
	keep(buf, b)
	_, err := w.Write(b[room-k:])
	return err
}

// ReadFrame reads the next frame's body from r with ReadBody, failing with
// bad on a length above limit before reading any. A clean end of the stream
// before a frame is io.EOF.
func ReadFrame(r *bufio.Reader, buf *[]byte, limit uint64, bad error) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > limit {
		return nil, fmt.Errorf("%w: a %d-byte frame over the %d-byte bound", bad, size, limit)
	}
	return ReadBody(r, buf, int(size), bad)
}

// ReadBody reads the next n bytes of r, a body whose length its format has
// already read and bounded, and returns them; they hold until the next read
// into *buf. The body is read into *buf when it fits, else into a buffer
// grown as its bytes arrive — by at most what it already holds — so memory
// follows what the peer sent, not what it claimed; a stream that ends
// mid-body fails with bad wrapping io.ErrUnexpectedEOF.
func ReadBody(r io.Reader, buf *[]byte, n int, bad error) ([]byte, error) {
	b := (*buf)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), 4096)))
		}
		k, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %w", bad, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
	}
	keep(buf, b)
	return b, nil
}

func keep(buf *[]byte, b []byte) {
	if cap(b) <= KeepBytes {
		*buf = b
	}
}
