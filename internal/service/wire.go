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
// reusable buffer and allocate only what escapes into the decoded struct:
// slices, maps, and the chunks of the connection side's text arena its
// strings are carved from. BenchmarkWireCodec measures one round trip.
//
// Bounds: the codec package's rule, with maxFrame the frame bound and each
// collection's smallest element encoding given at the decoders below.

import (
	"bufio"
	"errors"
	"time"

	"osprey/internal/codec"
	"osprey/internal/core"
	"osprey/internal/watch"
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
	// writer's message sees an exhausted buffer and defaults the field —
	// both directions stay compatible across a rolling upgrade.
	//
	// v4 appended the watch subsystem's fields: request.Watch/SubID and
	// response.Done/Events (server-push task-state transition frames). Same
	// contract: older writers leave the tail absent and the fields default.
	wireVersion = 4
	// maxFrame bounds one frame's decoded size, so a corrupt or hostile
	// length prefix cannot balloon memory.
	maxFrame = 64 << 20
)

// errTruncated marks a frame or message that ended mid-field, or a frame
// longer than maxFrame: a torn or corrupt frame.
var errTruncated = errors.New("service: truncated wire message")

// --- encoding ---

// appendSlice appends vs as a uvarint count and each element in app's form;
// readSlice reads it back. app and read are plain functions or method
// expressions, never closures, so passing them allocates nothing. The call
// through read does leak its Reader to escape analysis, which is why a
// decoding Reader lives in frameIO, not on the stack.
func appendSlice[T any](buf []byte, vs []T, app func([]byte, T) []byte) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = app(buf, v)
	}
	return buf
}

func appendInt(buf []byte, v int) []byte { return codec.AppendVarint(buf, int64(v)) }

// appendRequest encodes req after the frame's request ID. Field order is the
// wire contract; append new fields at the END and bump wireVersion.
func appendRequest(buf []byte, req *request) []byte {
	buf = codec.AppendString(buf, req.Op)
	buf = codec.AppendString(buf, req.Trace)
	// Reserved slot: versions 1-4 carried the relay's single-hop mark here.
	// Followers redirect instead of relaying, so nothing sets it: always write
	// false, never reuse.
	buf = append(buf, 0)
	buf = codec.AppendUvarint(buf, req.Token)
	buf = codec.AppendVarint(buf, req.WaitMS)
	buf = codec.AppendString(buf, req.Level)
	buf = codec.AppendString(buf, req.DedupKey)
	buf = appendSlice(buf, req.DedupKeys, codec.AppendString)
	buf = codec.AppendString(buf, req.ExpID)
	buf = appendInt(buf, req.WorkType)
	buf = codec.AppendString(buf, req.Payload)
	buf = appendInt(buf, req.Priority)
	buf = appendSlice(buf, req.Tags, codec.AppendString)
	buf = codec.AppendVarint(buf, req.TaskID)
	buf = appendSlice(buf, req.TaskIDs, codec.AppendVarint)
	buf = appendInt(buf, req.N)
	buf = codec.AppendString(buf, req.Pool)
	// Reserved slot: versions 1-4 carried the JSON era's timeout_ms here. No
	// binary client ever set it, so the field is gone from the struct, but its
	// position is part of the v1-v4 layout: always write zero, never reuse.
	buf = codec.AppendVarint(buf, 0)
	buf = codec.AppendString(buf, req.Result)
	buf = appendSlice(buf, req.Priorities, appendInt)
	buf = appendSlice(buf, req.Payloads, codec.AppendString)
	// --- fields appended in v4 ---
	buf = codec.AppendString(buf, req.Watch)
	buf = codec.AppendUvarint(buf, req.SubID)
	return buf
}

// appendTask writes t's fields in wire order. A zero time travels as 0, so
// an unstarted task's Started and Stopped rebuild as zero in readTask (a zero
// time's UnixNano is a huge negative number, and time.Unix(0, n) is never
// zero: without the mapping, IsZero breaks on the far side).
func appendTask(buf []byte, t *core.Task) []byte {
	buf = codec.AppendVarint(buf, t.ID)
	buf = codec.AppendString(buf, t.ExpID)
	buf = appendInt(buf, t.WorkType)
	buf = codec.AppendString(buf, string(t.Status))
	buf = codec.AppendString(buf, t.Payload)
	buf = codec.AppendString(buf, t.Result)
	buf = codec.AppendString(buf, t.Pool)
	buf = appendInt(buf, t.Priority)
	for _, ts := range [...]time.Time{t.Created, t.Started, t.Stopped} {
		var ns int64
		if !ts.IsZero() {
			ns = ts.UnixNano()
		}
		buf = codec.AppendVarint(buf, ns)
	}
	return buf
}

// appendResponse encodes resp after the frame's request ID. Same evolution
// rule as appendRequest: new fields append at the end only.
func appendResponse(buf []byte, resp *response) []byte {
	buf = codec.AppendBool(buf, resp.OK)
	buf = codec.AppendString(buf, resp.Error)
	buf = codec.AppendBool(buf, resp.Timeout)
	buf = codec.AppendBool(buf, resp.Transient)
	buf = codec.AppendUvarint(buf, resp.Token)
	buf = codec.AppendVarint(buf, resp.TaskID)
	buf = appendSlice(buf, resp.TaskIDs, codec.AppendVarint)
	buf = codec.AppendUvarint(buf, uint64(len(resp.Tasks)))
	for i := range resp.Tasks {
		buf = appendTask(buf, &resp.Tasks[i])
	}
	buf = codec.AppendUvarint(buf, uint64(len(resp.Results)))
	for i := range resp.Results {
		buf = codec.AppendVarint(buf, resp.Results[i].ID)
		buf = codec.AppendString(buf, resp.Results[i].Result)
	}
	buf = codec.AppendUvarint(buf, uint64(len(resp.StatusMap)))
	for id, st := range resp.StatusMap {
		buf = codec.AppendVarint(buf, id)
		buf = codec.AppendString(buf, string(st))
	}
	buf = codec.AppendUvarint(buf, uint64(len(resp.PrioMap)))
	for id, p := range resp.PrioMap {
		buf = codec.AppendVarint(buf, id)
		buf = appendInt(buf, p)
	}
	buf = appendInt(buf, resp.Count)
	buf = codec.AppendUvarint(buf, uint64(len(resp.CountsMap)))
	for st, n := range resp.CountsMap {
		buf = codec.AppendString(buf, string(st))
		buf = appendInt(buf, n)
	}
	buf = appendSlice(buf, resp.TagList, codec.AppendString)
	buf = codec.AppendString(buf, resp.ResultText)
	buf = codec.AppendString(buf, resp.Role)
	buf = codec.AppendString(buf, resp.NodeID)
	buf = codec.AppendString(buf, resp.LeaderSvc)
	buf = codec.AppendUvarint(buf, resp.Term)
	buf = codec.AppendUvarint(buf, resp.Applied)
	buf = appendSlice(buf, resp.PeerSvcs, codec.AppendString)
	buf = codec.AppendUvarint(buf, uint64(len(resp.Stats)))
	for k, v := range resp.Stats {
		buf = codec.AppendString(buf, k)
		buf = codec.AppendFloat64(buf, v)
	}
	// --- fields appended in v3 ---
	buf = codec.AppendBool(buf, resp.Overloaded)
	// --- fields appended in v4 ---
	buf = codec.AppendBool(buf, resp.Done)
	buf = codec.AppendUvarint(buf, uint64(len(resp.Events)))
	for i := range resp.Events {
		ev := &resp.Events[i]
		buf = codec.AppendUvarint(buf, ev.Token)
		buf = codec.AppendVarint(buf, ev.TaskID)
		buf = appendInt(buf, ev.WorkType)
		buf = codec.AppendString(buf, ev.Status)
		// Reserved slot: v4 carried the work type's queue depth here.
		// Nothing reads it since a resync seam became a bare marker: always
		// write zero, never reuse.
		buf = appendInt(buf, 0)
		buf = codec.AppendBool(buf, ev.Resync)
	}
	return buf
}

// --- decoding ---
//
// The decoders are straight-line field reads over a codec.Reader failing
// with errTruncated; no input can make them panic (TestWireDecodeNeverPanics,
// FuzzWireCodec). A field appended by a newer version is read only while
// bytes are left: an exhausted message at its boundary is an older writer and
// the field keeps its zero value, while one present and then torn still
// fails. Every value takes at least a byte, so the smallest encodings Count
// is given are a slice element's 1, a result's or a map entry's 2 (a Stats
// entry's 9: a string and a float64), an event's 6 and a task's 11.

func readSlice[T any](d *codec.Reader, read func(*codec.Reader) T) []T {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = read(d)
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

func readInt(d *codec.Reader) int { return int(d.Varint()) }

func decodeRequest(d *codec.Reader, req *request) error {
	req.Op = d.String()
	req.Trace = d.String()
	d.Bool() // reserved slot (see appendRequest): read and discarded
	req.Token = d.Uvarint()
	req.WaitMS = d.Varint()
	req.Level = d.String()
	req.DedupKey = d.String()
	req.DedupKeys = readSlice(d, (*codec.Reader).String)
	req.ExpID = d.String()
	req.WorkType = readInt(d)
	req.Payload = d.String()
	req.Priority = readInt(d)
	req.Tags = readSlice(d, (*codec.Reader).String)
	req.TaskID = d.Varint()
	req.TaskIDs = readSlice(d, (*codec.Reader).Varint)
	req.N = readInt(d)
	req.Pool = d.String()
	d.Varint() // reserved slot (see appendRequest): read and discarded
	req.Result = d.String()
	req.Priorities = readSlice(d, readInt)
	req.Payloads = readSlice(d, (*codec.Reader).String)
	// v4 tail.
	if d.Len() > 0 {
		req.Watch = d.String()
	}
	if d.Len() > 0 {
		req.SubID = d.Uvarint()
	}
	return d.Err()
}

// readTask reads what appendTask wrote; a 0 timestamp leaves the zero time.
func readTask(d *codec.Reader, t *core.Task) {
	t.ID = d.Varint()
	t.ExpID = d.String()
	t.WorkType = readInt(d)
	t.Status = core.Status(d.String())
	t.Payload = d.String()
	t.Result = d.String()
	t.Pool = d.String()
	t.Priority = readInt(d)
	for _, ts := range [...]*time.Time{&t.Created, &t.Started, &t.Stopped} {
		if ns := d.Varint(); ns != 0 {
			*ts = time.Unix(0, ns)
		}
	}
}

func decodeResponse(d *codec.Reader, resp *response) error {
	// Start from zero: the caller reuses resp across frames, and collection
	// fields below are only assigned when non-empty on the wire — without
	// this a frame with an empty Tasks (or Events) would inherit the previous
	// frame's slice.
	*resp = response{}
	resp.OK = d.Bool()
	resp.Error = d.String()
	resp.Timeout = d.Bool()
	resp.Transient = d.Bool()
	resp.Token = d.Uvarint()
	resp.TaskID = d.Varint()
	resp.TaskIDs = readSlice(d, (*codec.Reader).Varint)
	if n := d.Count(11); n > 0 {
		resp.Tasks = make([]core.Task, n)
		for i := range resp.Tasks {
			readTask(d, &resp.Tasks[i])
		}
	}
	if n := d.Count(2); n > 0 {
		resp.Results = make([]core.TaskResult, n)
		for i := range resp.Results {
			resp.Results[i].ID = d.Varint()
			resp.Results[i].Result = d.String()
		}
	}
	if n := d.Count(2); n > 0 {
		resp.StatusMap = make(map[int64]core.Status, n)
		for i := 0; i < n; i++ {
			id := d.Varint()
			resp.StatusMap[id] = core.Status(d.String())
		}
	}
	if n := d.Count(2); n > 0 {
		resp.PrioMap = make(map[int64]int, n)
		for i := 0; i < n; i++ {
			id := d.Varint()
			resp.PrioMap[id] = readInt(d)
		}
	}
	resp.Count = readInt(d)
	if n := d.Count(2); n > 0 {
		resp.CountsMap = make(map[core.Status]int, n)
		for i := 0; i < n; i++ {
			st := core.Status(d.String())
			resp.CountsMap[st] = readInt(d)
		}
	}
	resp.TagList = readSlice(d, (*codec.Reader).String)
	resp.ResultText = d.String()
	resp.Role = d.String()
	resp.NodeID = d.String()
	resp.LeaderSvc = d.String()
	resp.Term = d.Uvarint()
	resp.Applied = d.Uvarint()
	resp.PeerSvcs = readSlice(d, (*codec.Reader).String)
	if n := d.Count(9); n > 0 {
		resp.Stats = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := d.String()
			resp.Stats[k] = d.Float64()
		}
	}
	// v3 tail.
	if d.Len() > 0 {
		resp.Overloaded = d.Bool()
	}
	// v4 tail: watch push fields.
	if d.Len() > 0 {
		resp.Done = d.Bool()
	}
	if d.Len() > 0 {
		if n := d.Count(6); n > 0 {
			resp.Events = make([]watch.Event, n)
			for i := range resp.Events {
				ev := &resp.Events[i]
				ev.Token = d.Uvarint()
				ev.TaskID = d.Varint()
				ev.WorkType = readInt(d)
				ev.Status = d.String()
				d.Varint() // reserved slot (see appendResponse): read and discarded
				ev.Resync = d.Bool()
			}
		}
	}
	if d.Err() != nil {
		// A torn frame must not hand half-decoded collections to the caller.
		*resp = response{}
	}
	return d.Err()
}

// --- framing ---

// frameIO owns one side's reusable frame buffer — the writer encodes frames
// into it, the reader reads frames into it — the Reader decoding them (see
// appendSlice for why it is not on the stack) and the text arena that
// Reader carves every frame's strings from. One frameIO per connection
// direction; not safe for concurrent use (callers serialize on the
// connection's write lock or the single demux goroutine).
type frameIO struct {
	buf  []byte
	dec  codec.Reader
	text codec.Text
}

// readFrame reads one frame into the reusable buffer and returns the request
// ID and f.dec over the message (valid until the next call).
func (f *frameIO) readFrame(r *bufio.Reader) (uint64, *codec.Reader, error) {
	body, err := codec.ReadFrame(r, &f.buf, maxFrame, errTruncated)
	if err != nil {
		return 0, nil, err
	}
	f.dec = f.text.Reader(body, errTruncated)
	id := f.dec.Uvarint()
	return id, &f.dec, f.dec.Err()
}

// readRequest reads and decodes one request frame (server side).
func (f *frameIO) readRequest(r *bufio.Reader) (uint64, request, error) {
	var req request
	id, d, err := f.readFrame(r)
	if err == nil {
		err = decodeRequest(d, &req)
	}
	if err != nil {
		return 0, request{}, err
	}
	return id, req, nil
}

// readResponse reads and decodes one response frame into resp (client demux
// side). Both the frame buffer and resp are reusable across calls:
// decodeResponse assigns every field, so stale state never leaks between
// frames. What the decoded response holds is safe to hand off by value: its
// slices and maps are freshly allocated, and its strings are carved from
// f.text, whose bytes no later frame overwrites.
func (f *frameIO) readResponse(r *bufio.Reader, resp *response) (uint64, error) {
	id, d, err := f.readFrame(r)
	if err == nil {
		err = decodeResponse(d, resp)
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// writeRequest encodes and frames one request into w (client side; caller
// holds the connection write lock).
func (f *frameIO) writeRequest(w *bufio.Writer, id uint64, req *request) error {
	return codec.WriteFrame(w, &f.buf, appendRequest(codec.AppendUvarint(codec.BeginFrame(f.buf), id), req))
}

// writeResponse encodes and frames one response into w (server side; caller
// holds the connection write lock).
func (f *frameIO) writeResponse(w *bufio.Writer, id uint64, resp *response) error {
	return codec.WriteFrame(w, &f.buf, appendResponse(codec.AppendUvarint(codec.BeginFrame(f.buf), id), resp))
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
	f := &cb.f
	f.buf = appendRequest(f.buf[:0], &cb.req)
	var req request
	f.dec = f.text.Reader(f.buf, errTruncated)
	if err := decodeRequest(&f.dec, &req); err != nil {
		return err
	}
	f.buf = appendResponse(f.buf[:0], &cb.resp)
	var resp response
	f.dec = f.text.Reader(f.buf, errTruncated)
	if err := decodeResponse(&f.dec, &resp); err != nil {
		return err
	}
	if req.Op != cb.req.Op || resp.TaskID != cb.resp.TaskID {
		return errors.New("codec bench: round trip mismatch")
	}
	return nil
}
