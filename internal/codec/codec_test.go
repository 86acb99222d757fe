package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

var errTest = errors.New("codec test: bad input")

// FuzzCodecReader drives a fuzzer-chosen sequence of reads over fuzzer-chosen
// bytes. The Reader never panics and never returns bytes it was not given;
// once a read fails, Err sticks and every later read returns the zero value;
// Count refuses a claim beyond Len()/minItem; and every Append helper's
// output reads back to its input. Strings are carved from the Reader's Text:
// no chunk is sized past max(n, min(textChunk, Len())) for an n-byte string,
// and every string keeps its bytes after the input is scribbled over and
// more strings are carved from the same arena.
func FuzzCodecReader(f *testing.F) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -7)
	b = AppendBool(b, true)
	b = AppendFloat64(b, 1.5)
	b = AppendString(b, "abc")
	b = AppendBytes(b, []byte{1, 2})
	b = AppendUvarint(b, 3)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 15, 0}, b)
	f.Add([]byte{5, 0}, AppendUvarint(AppendString(nil, "abc"), 7))
	f.Add([]byte{6, 6, 6}, AppendString(AppendString(AppendString(nil, "abc"), string(make([]byte, 5000))), "de"))
	f.Add([]byte{7, 0x7f, 5}, []byte{0x80})
	f.Add([]byte{5, 5}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		in := bytes.Clone(data)
		r := NewReader(in, errTest)
		type carved struct {
			s    string
			want []byte
		}
		var kept []carved
		failed := false
		for i, op := range ops {
			pos := len(data) - r.Len()
			var zero bool // the read returned its type's zero value
			switch op % 8 {
			case 0:
				zero = r.Uvarint() == 0
			case 1:
				zero = r.Varint() == 0
			case 2:
				zero = r.Byte() == 0
			case 3:
				zero = !r.Bool()
			case 4:
				zero = math.Float64bits(r.Float64()) == 0
			case 5, 6:
				var got []byte
				if op%8 == 5 {
					got = r.Bytes()
					if cap(got) != len(got) {
						t.Fatalf("op %d: Bytes returned %d bytes with capacity %d", i, len(got), cap(got))
					}
				} else {
					var before []byte
					if r.text != nil {
						before = r.text.chunk
					}
					left := r.Len()
					s := r.String()
					got = []byte(s)
					if s != "" {
						kept = append(kept, carved{s, got})
						if c := r.text.chunk; first(c) != first(before) && cap(c) > max(len(s), min(textChunk, left)) {
							t.Fatalf("op %d: a %d-byte string with %d bytes left made a %d-byte chunk", i, len(s), left, cap(c))
						}
					}
				}
				zero = len(got) == 0
				end := len(data) - r.Len()
				if r.Err() == nil && (len(got) > end-pos || !bytes.Equal(got, data[end-len(got):end])) {
					t.Fatalf("op %d: read %x, not the bytes it consumed, %x", i, got, data[pos:end])
				}
				if op%8 == 5 && len(got) > 0 && &got[0] != &in[end-len(got)] {
					t.Fatalf("op %d: Bytes does not alias its input", i)
				}
			case 7:
				minItem := int(op>>3) + 1
				n := r.Count(minItem)
				zero = n == 0
				v, k := binary.Uvarint(data[pos:])
				if !failed && k > 0 && v > uint64((len(data)-pos-k)/minItem) && r.Err() == nil {
					t.Fatalf("op %d: Count(%d) accepted %d items over %d bytes", i, minItem, v, len(data)-pos-k)
				}
				if r.Err() == nil && n*minItem > r.Len() {
					t.Fatalf("op %d: Count(%d) returned %d over %d bytes", i, minItem, n, r.Len())
				}
			}
			if failed && !zero {
				t.Fatalf("op %d: a read after a failure returned a value", i)
			}
			if err := r.Err(); err != nil {
				if err != errTest || r.Len() != 0 {
					t.Fatalf("op %d: failed Reader has Err %v and %d bytes left", i, err, r.Len())
				}
				failed = true
			} else if failed {
				t.Fatalf("op %d: Err did not stick", i)
			}
		}
		for i := range in {
			in[i] ^= 0xA5
		}
		if r.text != nil {
			more := r.text.Reader(bytes.Clone(data), errTest)
			for more.Len() > 0 && more.Err() == nil {
				_ = more.String()
			}
		}
		for _, k := range kept {
			if k.s != string(k.want) {
				t.Fatalf("string %q became %q after scribbling and more reads", k.want, k.s)
			}
		}

		var u uint64
		if len(data) >= 8 {
			u = binary.LittleEndian.Uint64(data)
		}
		enc := AppendUvarint(nil, u)
		enc = AppendVarint(enc, int64(u))
		enc = AppendBool(enc, len(data)%2 == 1)
		enc = AppendFloat64(enc, math.Float64frombits(u))
		enc = AppendBytes(enc, data)
		enc = AppendString(enc, string(data))
		enc = append(AppendUvarint(enc, uint64(len(data))), data...)
		rr := NewReader(enc, errTest)
		if got := rr.Uvarint(); got != u {
			t.Fatalf("Uvarint read back %d, want %d", got, u)
		}
		if got := rr.Varint(); got != int64(u) {
			t.Fatalf("Varint read back %d, want %d", got, int64(u))
		}
		if got := rr.Bool(); got != (len(data)%2 == 1) {
			t.Fatalf("Bool read back %v", got)
		}
		if got := math.Float64bits(rr.Float64()); got != u {
			t.Fatalf("Float64 read back bits %x, want %x", got, u)
		}
		if got := rr.Bytes(); !bytes.Equal(got, data) {
			t.Fatalf("Bytes read back %x, want %x", got, data)
		}
		if got := rr.String(); got != string(data) {
			t.Fatalf("String read back %q, want %q", got, data)
		}
		if n := rr.Count(1); n != len(data) {
			t.Fatalf("Count read back %d, want %d", n, len(data))
		}
		for i := range data {
			if got := rr.Byte(); got != data[i] {
				t.Fatalf("Byte %d read back %x, want %x", i, got, data[i])
			}
		}
		if rr.Err() != nil || rr.Len() != 0 {
			t.Fatalf("read back with Err %v and %d bytes left", rr.Err(), rr.Len())
		}
	})
}

// TestFrameRoundTrip: frames written one Write each read back in order
// through one buffer, which keeps its array only while it is at most
// KeepBytes; a length over the bound, a body cut short and a clean end of
// stream each fail as documented.
func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{{}, []byte("x"), bytes.Repeat([]byte("ab"), 300), make([]byte, KeepBytes+1), []byte("after")}
	var stream bytes.Buffer
	var wbuf []byte
	for _, body := range bodies {
		writes := stream.Len()
		if err := WriteFrame(&stream, &wbuf, append(BeginFrame(wbuf), body...)); err != nil {
			t.Fatal(err)
		}
		if want := len(AppendUvarint(nil, uint64(len(body)))) + len(body); stream.Len()-writes != want {
			t.Fatalf("a %d-byte body wrote %d bytes, want %d", len(body), stream.Len()-writes, want)
		}
		if cap(wbuf) > KeepBytes {
			t.Fatalf("the writer kept a %d-byte buffer", cap(wbuf))
		}
	}
	r := bufio.NewReader(&stream)
	var rbuf []byte
	for _, want := range bodies {
		got, err := ReadFrame(r, &rbuf, KeepBytes+1, errTest)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read a %d-byte frame: %d bytes, err %v", len(want), len(got), err)
		}
		if cap(rbuf) > KeepBytes {
			t.Fatalf("the reader kept a %d-byte buffer", cap(rbuf))
		}
	}
	if _, err := ReadFrame(r, &rbuf, 10, errTest); err != io.EOF {
		t.Fatalf("at the end of the stream: err %v, want io.EOF", err)
	}
	over := bufio.NewReader(bytes.NewReader(append(AppendUvarint(nil, 11), make([]byte, 11)...)))
	if _, err := ReadFrame(over, &rbuf, 10, errTest); !errors.Is(err, errTest) {
		t.Fatalf("an 11-byte frame over a 10-byte bound: err %v", err)
	}
	torn := bufio.NewReader(bytes.NewReader(append(AppendUvarint(nil, 5), 1, 2)))
	if _, err := ReadFrame(torn, &rbuf, 10, errTest); !errors.Is(err, errTest) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a 5-byte frame cut at 2: err %v", err)
	}
}

// first is the address of b's first byte, nil for no array.
func first(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return &b[:1][0]
}
