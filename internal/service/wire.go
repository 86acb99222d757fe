package service

// The wire protocol: a length-prefixed, request-ID-framed binary codec for the
// service's request/response messages. (It is "v2" in names and history: v1
// was newline-delimited JSON, removed once nothing spoke it.)
//
// Connection layout. A client opens with a two-byte preamble — the magic byte
// wireMagic (which can never begin JSON or any UTF-8 text) and a version
// byte — and then ships frames. The server reads the preamble of every
// accepted connection and closes, counts and logs one that does not start
// with the magic or names a version newer than its own (Server.handle).
//
// Frame layout, identical in both directions:
//
//	uvarint frameLen | uvarint requestID | message
//
// where frameLen counts the bytes after itself and message is the
// field-ordered binary encoding of one request (client→server) or response
// (server→client). Request IDs are minted by the client and echoed verbatim
// by the server; they are what lets responses return out of order, so the
// server can park long-poll ops on per-request goroutines and the client can
// pipeline concurrent calls over one connection.
//
// Message encoding. Fields are written in a fixed order with no tags and no
// reflection: varints for ints (zigzag for signed), a uvarint count followed
// by elements for strings/slices/maps, one byte for bools, 8 fixed
// little-endian bytes for float64s. Every field of the struct is always
// written — zero values cost one byte — so the decoder is a straight-line
// field reader. Evolution rule: new fields append at the end of the message
// and bump wireVersion; the decoder rejects versions newer than its own at
// the preamble, and a decode that runs out of bytes mid-message fails loudly
// rather than guessing (TestWireFieldCoverage pins that every struct field
// has codec support).
//
// The codec is deliberately allocation-light: encoders append into a
// reusable per-connection scratch buffer, decoders read frames into a
// reusable buffer and allocate only what escapes into the decoded struct
// (strings, slices, maps). BenchmarkWireCodec measures one round trip.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

const (
	// wireMagic is the first byte a client sends. 0xF5 is an invalid leading
	// byte for both JSON and UTF-8 text, so a stray text-protocol client can
	// never be mistaken for a frame stream.
	wireMagic = 0xF5
	// wireVersion is the protocol version this build speaks. Servers accept
	// any version from 1 through wireVersion (the codec only ever appends
	// fields); clients send exactly wireVersion.
	//
	// v3 appended response.Overloaded (admission-control shed marker). A v2
	// peer's decoder ignores the trailing byte; a v3 decoder reading a v2
	// writer's message sees an exhausted buffer and defaults the field
	// (tailBool) — both directions stay compatible across a rolling
	// upgrade.
	//
	// v4 appended the watch subsystem's fields: request.Watch/SubID and
	// response.Done/Events (server-push task-state transition frames). Same
	// contract: older writers leave the tail absent and the fields default.
	wireVersion = 4
	// maxFrame bounds one frame's decoded size, so a corrupt or hostile
	// length prefix cannot balloon memory.
	maxFrame = 64 << 20
	// frameBufKeep is the largest read buffer a connection keeps for its
	// next frame; a larger frame's buffer goes when the frame is handled.
	frameBufKeep = 1 << 20
)

// errFrameTooBig marks a length prefix beyond maxFrame — malformed by fiat.
var errFrameTooBig = errors.New("service: wire frame exceeds size bound")

// errTruncated marks a message that ended mid-field: a torn or corrupt frame.
var errTruncated = errors.New("service: truncated wire message")

// --- encoding ---

// appendUvarint/appendVarint/appendString/appendBool are the primitive
// appenders; they grow buf like append and return it.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendStringSlice(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendInt64Slice(buf []byte, vs []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

func appendIntSlice(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

func appendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendRequest encodes req after the frame's request ID. Field order is the
// wire contract; append new fields at the END and bump wireVersion.
func appendRequest(buf []byte, req *request) []byte {
	buf = appendString(buf, req.Op)
	buf = appendString(buf, req.Trace)
	// Reserved slot: versions 1-4 carried the relay's single-hop mark here.
	// Followers redirect instead of relaying, so nothing sets it: always write
	// false, never reuse.
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, req.Token)
	buf = binary.AppendVarint(buf, req.WaitMS)
	buf = appendString(buf, req.Level)
	buf = appendString(buf, req.DedupKey)
	buf = appendStringSlice(buf, req.DedupKeys)
	buf = appendString(buf, req.ExpID)
	buf = binary.AppendVarint(buf, int64(req.WorkType))
	buf = appendString(buf, req.Payload)
	buf = binary.AppendVarint(buf, int64(req.Priority))
	buf = appendStringSlice(buf, req.Tags)
	buf = binary.AppendVarint(buf, req.TaskID)
	buf = appendInt64Slice(buf, req.TaskIDs)
	buf = binary.AppendVarint(buf, int64(req.N))
	buf = appendString(buf, req.Pool)
	// Reserved slot: versions 1-4 carried the JSON era's timeout_ms here. No
	// binary client ever set it, so the field is gone from the struct, but its
	// position is part of the v1-v4 layout: always write zero, never reuse.
	buf = binary.AppendVarint(buf, 0)
	buf = appendString(buf, req.Result)
	buf = appendIntSlice(buf, req.Priorities)
	buf = appendStringSlice(buf, req.Payloads)
	// --- fields appended in v4 ---
	buf = appendString(buf, req.Watch)
	buf = binary.AppendUvarint(buf, req.SubID)
	return buf
}

func appendWireTask(buf []byte, t *wireTask) []byte {
	buf = binary.AppendVarint(buf, t.ID)
	buf = appendString(buf, t.ExpID)
	buf = binary.AppendVarint(buf, int64(t.WorkType))
	buf = appendString(buf, t.Status)
	buf = appendString(buf, t.Payload)
	buf = appendString(buf, t.Result)
	buf = appendString(buf, t.Pool)
	buf = binary.AppendVarint(buf, int64(t.Priority))
	buf = binary.AppendVarint(buf, t.Created)
	buf = binary.AppendVarint(buf, t.Started)
	buf = binary.AppendVarint(buf, t.Stopped)
	return buf
}

// appendResponse encodes resp after the frame's request ID. Same evolution
// rule as appendRequest: new fields append at the end only.
func appendResponse(buf []byte, resp *response) []byte {
	buf = appendBool(buf, resp.OK)
	buf = appendString(buf, resp.Error)
	buf = appendBool(buf, resp.Timeout)
	buf = appendBool(buf, resp.Transient)
	buf = binary.AppendUvarint(buf, resp.Token)
	buf = binary.AppendVarint(buf, resp.TaskID)
	buf = appendInt64Slice(buf, resp.TaskIDs)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Tasks)))
	for i := range resp.Tasks {
		buf = appendWireTask(buf, &resp.Tasks[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.Results)))
	for i := range resp.Results {
		buf = binary.AppendVarint(buf, resp.Results[i].ID)
		buf = appendString(buf, resp.Results[i].Result)
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.StatusMap)))
	for id, st := range resp.StatusMap {
		buf = binary.AppendVarint(buf, id)
		buf = appendString(buf, st)
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.PrioMap)))
	for id, p := range resp.PrioMap {
		buf = binary.AppendVarint(buf, id)
		buf = binary.AppendVarint(buf, int64(p))
	}
	buf = binary.AppendVarint(buf, int64(resp.Count))
	buf = binary.AppendUvarint(buf, uint64(len(resp.CountsMap)))
	for st, n := range resp.CountsMap {
		buf = appendString(buf, st)
		buf = binary.AppendVarint(buf, int64(n))
	}
	buf = appendStringSlice(buf, resp.TagList)
	buf = appendString(buf, resp.ResultText)
	buf = appendString(buf, resp.Role)
	buf = appendString(buf, resp.NodeID)
	buf = appendString(buf, resp.LeaderSvc)
	buf = binary.AppendUvarint(buf, resp.Term)
	buf = binary.AppendUvarint(buf, resp.Applied)
	buf = appendStringSlice(buf, resp.PeerSvcs)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Stats)))
	for k, v := range resp.Stats {
		buf = appendString(buf, k)
		buf = appendFloat64(buf, v)
	}
	// --- fields appended in v3 ---
	buf = appendBool(buf, resp.Overloaded)
	// --- fields appended in v4 ---
	buf = appendBool(buf, resp.Done)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Events)))
	for i := range resp.Events {
		ev := &resp.Events[i]
		buf = binary.AppendUvarint(buf, ev.Token)
		buf = binary.AppendVarint(buf, ev.TaskID)
		buf = binary.AppendVarint(buf, int64(ev.WorkType))
		buf = appendString(buf, ev.Status)
		buf = binary.AppendVarint(buf, int64(ev.Depth))
		buf = appendBool(buf, ev.Resync)
	}
	return buf
}

// --- decoding ---

// wireDec is a bounds-checked cursor over one frame's bytes. Every read
// method degrades to a zero value once err is set, so decoders are written
// as straight-line field reads with a single error check at the end; no
// input can make it panic (TestWireDecodeNeverPanics / FuzzWireCodec).
type wireDec struct {
	buf []byte
	pos int
	err error
}

func (d *wireDec) reset(buf []byte) { d.buf, d.pos, d.err = buf, 0, nil }

func (d *wireDec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *wireDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *wireDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *wireDec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.buf) {
		d.fail()
		return false
	}
	b := d.buf[d.pos]
	d.pos++
	return b != 0
}

func (d *wireDec) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail()
		return ""
	}
	if n == 0 {
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// count reads a collection length and sanity-bounds it: every element costs
// at least one byte, so a count beyond the remaining bytes is corruption and
// must not drive a huge preallocation.
func (d *wireDec) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail()
		return 0
	}
	return int(n)
}

// tailBool reads one bool appended by a NEWER protocol version: an
// exhausted buffer is not an error but an older writer, and the field
// defaults to false. Only valid for version-appended fields at the tail of
// a message — mandatory fields keep the loud errTruncated behavior.
func (d *wireDec) tailBool() bool {
	if d.err != nil || d.pos >= len(d.buf) {
		return false
	}
	b := d.buf[d.pos]
	d.pos++
	return b != 0
}

// tailString and tailUvarint are the string/uvarint analogues of tailBool: an
// exhausted buffer at the field boundary is an older writer and defaults the
// field, but a field that is present and then torn mid-bytes still fails.
func (d *wireDec) tailString() string {
	if d.err != nil || d.pos >= len(d.buf) {
		return ""
	}
	return d.string()
}

func (d *wireDec) tailUvarint() uint64 {
	if d.err != nil || d.pos >= len(d.buf) {
		return 0
	}
	return d.uvarint()
}

func (d *wireDec) float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.pos < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v
}

func (d *wireDec) stringSlice() []string {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *wireDec) int64Slice() []int64 {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.varint()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *wireDec) intSlice() []int {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.varint())
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *wireDec) decodeRequest(req *request) error {
	req.Op = d.string()
	req.Trace = d.string()
	d.bool() // reserved slot (see appendRequest): read and discarded
	req.Token = d.uvarint()
	req.WaitMS = d.varint()
	req.Level = d.string()
	req.DedupKey = d.string()
	req.DedupKeys = d.stringSlice()
	req.ExpID = d.string()
	req.WorkType = int(d.varint())
	req.Payload = d.string()
	req.Priority = int(d.varint())
	req.Tags = d.stringSlice()
	req.TaskID = d.varint()
	req.TaskIDs = d.int64Slice()
	req.N = int(d.varint())
	req.Pool = d.string()
	d.varint() // reserved slot (see appendRequest): read and discarded
	req.Result = d.string()
	req.Priorities = d.intSlice()
	req.Payloads = d.stringSlice()
	// v4 tail: absent when the writer is older, defaulting to zero values.
	req.Watch = d.tailString()
	req.SubID = d.tailUvarint()
	return d.err
}

func (d *wireDec) decodeWireTask(t *wireTask) {
	t.ID = d.varint()
	t.ExpID = d.string()
	t.WorkType = int(d.varint())
	t.Status = d.string()
	t.Payload = d.string()
	t.Result = d.string()
	t.Pool = d.string()
	t.Priority = int(d.varint())
	t.Created = d.varint()
	t.Started = d.varint()
	t.Stopped = d.varint()
}

func (d *wireDec) decodeResponse(resp *response) error {
	// Start from zero: the caller reuses resp across frames, and collection
	// fields below are only assigned when non-empty on the wire — without
	// this a frame with an empty Tasks (or Events) would inherit the previous
	// frame's slice.
	*resp = response{}
	resp.OK = d.bool()
	resp.Error = d.string()
	resp.Timeout = d.bool()
	resp.Transient = d.bool()
	resp.Token = d.uvarint()
	resp.TaskID = d.varint()
	resp.TaskIDs = d.int64Slice()
	if n := d.count(); n > 0 {
		resp.Tasks = make([]wireTask, n)
		for i := range resp.Tasks {
			d.decodeWireTask(&resp.Tasks[i])
		}
	}
	if n := d.count(); n > 0 {
		resp.Results = make([]wireResult, n)
		for i := range resp.Results {
			resp.Results[i].ID = d.varint()
			resp.Results[i].Result = d.string()
		}
	}
	if n := d.count(); n > 0 {
		resp.StatusMap = make(map[int64]string, n)
		for i := 0; i < n; i++ {
			id := d.varint()
			resp.StatusMap[id] = d.string()
		}
	}
	if n := d.count(); n > 0 {
		resp.PrioMap = make(map[int64]int, n)
		for i := 0; i < n; i++ {
			id := d.varint()
			resp.PrioMap[id] = int(d.varint())
		}
	}
	resp.Count = int(d.varint())
	if n := d.count(); n > 0 {
		resp.CountsMap = make(map[string]int, n)
		for i := 0; i < n; i++ {
			st := d.string()
			resp.CountsMap[st] = int(d.varint())
		}
	}
	resp.TagList = d.stringSlice()
	resp.ResultText = d.string()
	resp.Role = d.string()
	resp.NodeID = d.string()
	resp.LeaderSvc = d.string()
	resp.Term = d.uvarint()
	resp.Applied = d.uvarint()
	resp.PeerSvcs = d.stringSlice()
	if n := d.count(); n > 0 {
		resp.Stats = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := d.string()
			resp.Stats[k] = d.float64()
		}
	}
	// v3 tail: absent when the writer is older, defaulting to false.
	resp.Overloaded = d.tailBool()
	// v4 tail: watch push fields.
	resp.Done = d.tailBool()
	if d.err == nil && d.pos < len(d.buf) {
		if n := d.count(); n > 0 {
			resp.Events = make([]wireEvent, n)
			for i := range resp.Events {
				ev := &resp.Events[i]
				ev.Token = d.uvarint()
				ev.TaskID = d.varint()
				ev.WorkType = int(d.varint())
				ev.Status = d.string()
				ev.Depth = int(d.varint())
				ev.Resync = d.bool()
			}
		}
	}
	if d.err != nil {
		// A torn frame must not hand half-decoded collections to the caller.
		*resp = response{}
	}
	return d.err
}

// --- framing ---

// frameIO owns one side's reusable frame buffers: an encode scratch the
// writer appends messages into and a read buffer frames are slurped into
// before decoding. One frameIO per connection direction; not safe for
// concurrent use (callers serialize on the connection's write lock or the
// single demux goroutine).
type frameIO struct {
	enc  []byte
	head [2 * binary.MaxVarintLen64]byte
	read []byte
	dec  wireDec
}

// writeFrame emits one frame — uvarint(len) | uvarint(id) | body — where
// body was appended into f.enc by the caller. A single bufio write per
// component keeps this allocation-free.
func (f *frameIO) writeFrame(w *bufio.Writer, id uint64, body []byte) error {
	head := binary.PutUvarint(f.head[:], uint64(len(body))+uint64(varintLen(id)))
	head += binary.PutUvarint(f.head[head:], id)
	if _, err := w.Write(f.head[:head]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

func varintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readFrame reads one frame into the reusable buffer and returns the request
// ID and the message bytes (valid until the next call).
func (f *frameIO) readFrame(r *bufio.Reader) (id uint64, msg []byte, err error) {
	frameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if frameLen > maxFrame {
		return 0, nil, errFrameTooBig
	}
	// The body grows as its bytes arrive — by at most what it already holds
	// — so memory follows what the peer sent, not what it claimed, and only
	// a buffer up to frameBufKeep stays with the connection.
	buf, n := f.read[:0], int(frameLen)
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 4096)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: %w", errTruncated, err)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	if cap(buf) <= frameBufKeep {
		f.read = buf
	}
	f.dec.reset(buf)
	id = f.dec.uvarint()
	if f.dec.err != nil {
		return 0, nil, f.dec.err
	}
	return id, buf[f.dec.pos:], nil
}

// readRequest reads and decodes one request frame (server side).
func (f *frameIO) readRequest(r *bufio.Reader) (uint64, request, error) {
	id, msg, err := f.readFrame(r)
	var req request
	if err != nil {
		return 0, req, err
	}
	f.dec.reset(msg)
	if err := f.dec.decodeRequest(&req); err != nil {
		return 0, request{}, err
	}
	return id, req, nil
}

// readResponse reads and decodes one response frame into resp (client demux
// side). Both the frame buffer and resp are reusable across calls:
// decodeResponse assigns every field, so stale state never leaks between
// frames, and what the decoded response owns (strings, slices, maps) is
// freshly allocated and safe to hand off by value.
func (f *frameIO) readResponse(r *bufio.Reader, resp *response) (uint64, error) {
	id, msg, err := f.readFrame(r)
	if err != nil {
		return 0, err
	}
	f.dec.reset(msg)
	if err := f.dec.decodeResponse(resp); err != nil {
		return 0, err
	}
	return id, nil
}

// writeRequest encodes and frames one request into w (client side; caller
// holds the connection write lock).
func (f *frameIO) writeRequest(w *bufio.Writer, id uint64, req *request) error {
	f.enc = appendRequest(f.enc[:0], req)
	return f.writeFrame(w, id, f.enc)
}

// writeResponse encodes and frames one response into w (server side; caller
// holds the connection write lock).
func (f *frameIO) writeResponse(w *bufio.Writer, id uint64, resp *response) error {
	f.enc = appendResponse(f.enc[:0], resp)
	return f.writeFrame(w, id, f.enc)
}

// --- benchmark access ---

// CodecBench exposes the codec to the repository-root benchmark suite
// (BenchmarkWireCodec) and to benchmark/: one submit-shaped request/response
// round trip. The payload mirrors BenchmarkSubmitTask's.
type CodecBench struct {
	f    frameIO
	req  request
	resp response
}

// NewCodecBench builds the harness around one representative submit
// request/response pair.
func NewCodecBench() *CodecBench {
	return &CodecBench{
		req: request{
			Op: "submit", Trace: "0123456789abcdef", ExpID: "bench",
			WorkType: 1, Payload: `{"x": [1.0, 2.0, 3.0, 4.0]}`,
			DedupKey: "cc-0011223344556677-42",
		},
		resp: response{OK: true, TaskID: 123456, Token: 987654},
	}
}

// RoundTripV2 encodes and decodes the request and response pair through the
// binary codec, reusing the harness scratch like a live connection would.
func (cb *CodecBench) RoundTripV2() error {
	cb.f.enc = appendRequest(cb.f.enc[:0], &cb.req)
	var req request
	cb.f.dec.reset(cb.f.enc)
	if err := cb.f.dec.decodeRequest(&req); err != nil {
		return err
	}
	cb.f.enc = appendResponse(cb.f.enc[:0], &cb.resp)
	var resp response
	cb.f.dec.reset(cb.f.enc)
	if err := cb.f.dec.decodeResponse(&resp); err != nil {
		return err
	}
	if req.Op != cb.req.Op || resp.TaskID != cb.resp.TaskID {
		return errors.New("codec bench: round trip mismatch")
	}
	return nil
}
