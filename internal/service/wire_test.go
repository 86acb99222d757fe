package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"osprey/internal/codec"
	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/watch"
)

// wireDec and appendString give the tests that pin the layout through them
// (TestWireZeroValuesRoundTrip, TestWireDecodeNeverPanics) the decoders and
// the string encoder in the form those tests call.
type wireDec struct{ r codec.Reader }

func (d *wireDec) reset(b []byte)                   { d.r = codec.NewReader(b, errTruncated) }
func (d *wireDec) decodeRequest(q *request) error   { return decodeRequest(&d.r, q) }
func (d *wireDec) decodeResponse(p *response) error { return decodeResponse(&d.r, p) }
func appendString(b []byte, s string) []byte        { return codec.AppendString(b, s) }

// fillValue sets v (and everything reachable from it) to non-zero values
// derived from seed, so a round-trip losing any field is observable.
func fillValue(v reflect.Value, seed int) {
	if v.Type() == reflect.TypeFor[time.Time]() {
		v.Set(reflect.ValueOf(time.Unix(0, int64(seed+7))))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(seed + 3))
	case reflect.Uint64:
		v.SetUint(uint64(seed + 5))
	case reflect.Float64:
		v.SetFloat(float64(seed) + 0.5)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillValue(s.Index(i), seed+i+1)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMapWithSize(v.Type(), 2)
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fillValue(k, seed+10*i+1)
			val := reflect.New(v.Type().Elem()).Elem()
			fillValue(val, seed+10*i+2)
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), seed+i+1)
		}
	default:
		panic(fmt.Sprintf("fillValue: unsupported kind %v — extend the test", v.Kind()))
	}
}

// TestWireFieldCoverage fails when a request or response field is added
// without v2 codec support: every field is reflectively set non-zero, round
// tripped through the binary codec, and compared field by field.
func TestWireFieldCoverage(t *testing.T) {
	var req request
	fillValue(reflect.ValueOf(&req).Elem(), 0)
	buf := appendRequest(nil, &req)
	dec := codec.NewReader(buf, errTruncated)
	var got request
	if err := decodeRequest(&dec, &got); err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if dec.Len() != 0 {
		t.Fatalf("decodeRequest left %d trailing bytes", dec.Len())
	}
	rv, gv := reflect.ValueOf(req), reflect.ValueOf(got)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("request.%s lost in v2 round trip: sent %v, got %v — add it to appendRequest/decodeRequest",
				rv.Type().Field(i).Name, rv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}

	var resp response
	fillValue(reflect.ValueOf(&resp).Elem(), 100)
	buf = appendResponse(nil, &resp)
	dec = codec.NewReader(buf, errTruncated)
	var gotR response
	if err := decodeResponse(&dec, &gotR); err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if dec.Len() != 0 {
		t.Fatalf("decodeResponse left %d trailing bytes", dec.Len())
	}
	rv, gv = reflect.ValueOf(resp), reflect.ValueOf(gotR)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("response.%s lost in v2 round trip: sent %v, got %v — add it to appendResponse/decodeResponse",
				rv.Type().Field(i).Name, rv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// TestWireZeroValuesRoundTrip pins the canonical-zero contract: zero structs
// survive as zero (nil slices stay nil, nil maps stay nil).
func TestWireZeroValuesRoundTrip(t *testing.T) {
	var dec wireDec
	dec.reset(appendRequest(nil, &request{}))
	var req request
	if err := dec.decodeRequest(&req); err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if !reflect.DeepEqual(req, request{}) {
		t.Fatalf("zero request round trip = %+v", req)
	}
	dec.reset(appendResponse(nil, &response{}))
	var resp response
	if err := dec.decodeResponse(&resp); err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if !reflect.DeepEqual(resp, response{}) {
		t.Fatalf("zero response round trip = %+v", resp)
	}
}

// TestWireDecodeNeverPanics drives the decoders over every truncation of a
// valid message and over corrupt prefixes: they must return errors, never
// panic, never hand back partially-filled collections.
func TestWireDecodeNeverPanics(t *testing.T) {
	// Version-appended tail fields make some truncation points byte-identical
	// to a valid older-version message, and the decoder accepts those by
	// design — that tolerance is the append-only evolution contract. A cut at
	// any other offset tears a mandatory field and must error.
	var req request
	fillValue(reflect.ValueOf(&req).Elem(), 0)
	full := appendRequest(nil, &req)
	// The v4 request tail is Watch then SubID; cuts at either field boundary
	// decode as an older writer with the rest defaulted.
	watchLen := len(appendString(nil, req.Watch))
	subIDLen := len(binary.AppendUvarint(nil, req.SubID))
	reqCuts := map[int]request{}
	{
		atV3 := req
		atV3.Watch, atV3.SubID = "", 0
		reqCuts[len(full)-watchLen-subIDLen] = atV3
		atWatch := req
		atWatch.SubID = 0
		reqCuts[len(full)-subIDLen] = atWatch
	}
	var dec wireDec
	for i := 0; i < len(full); i++ {
		dec.reset(full[:i])
		var r request
		err := dec.decodeRequest(&r)
		if want, ok := reqCuts[i]; ok {
			if err != nil {
				t.Fatalf("decodeRequest rejected older-version-length message at %d: %v", i, err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("older-version decode at %d = %+v", i, r)
			}
			continue
		}
		if err == nil {
			t.Fatalf("decodeRequest accepted truncation at %d/%d", i, len(full))
		}
	}
	var resp response
	fillValue(reflect.ValueOf(&resp).Elem(), 7)
	fullR := appendResponse(nil, &resp)
	// The response tail is Overloaded (v3), then Done and Events (v4). The
	// Events encoding length is measured by re-encoding without them (the
	// +1 accounts for the zero count byte that encoding still writes).
	respNE := resp
	respNE.Events = nil
	eventsLen := len(fullR) - len(appendResponse(nil, &respNE)) + 1
	countStart := len(fullR) - eventsLen
	respCuts := map[int]response{}
	{
		atV2 := resp
		atV2.Overloaded, atV2.Done, atV2.Events = false, false, nil
		respCuts[countStart-2] = atV2
		atV3 := resp
		atV3.Done, atV3.Events = false, nil
		respCuts[countStart-1] = atV3
		atDone := resp
		atDone.Events = nil
		respCuts[countStart] = atDone
	}
	for i := 0; i < len(fullR); i++ {
		dec.reset(fullR[:i])
		var r response
		err := dec.decodeResponse(&r)
		if want, ok := respCuts[i]; ok {
			if err != nil {
				t.Fatalf("decodeResponse rejected older-version-length message at %d: %v", i, err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("older-version decode at %d = %+v", i, r)
			}
			continue
		}
		if err == nil {
			t.Fatalf("decodeResponse accepted truncation at %d/%d", i, len(fullR))
		}
		if !reflect.DeepEqual(r, response{}) {
			t.Fatalf("truncated decode at %d returned partial response %+v", i, r)
		}
	}
	// A length prefix pointing past the buffer must not drive a huge
	// allocation or an out-of-bounds read.
	dec.reset([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	var r request
	if err := dec.decodeRequest(&r); err == nil {
		t.Fatal("decodeRequest accepted an over-long length prefix")
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// wireAllocBound is the most a decode of n bytes may allocate. The codec's
// Count rule keeps every shape under it: a slice of empty strings costs 16×
// its bytes (a string header per byte), and a map sized for a count claiming
// an entry per 2 bytes about 27×, the worst TestDecodeResponseAllocationBounded
// measures.
func wireAllocBound(n int) uint64 { return 32*uint64(n) + 64<<10 }

// FuzzWireCodec fuzzes the frame and message decoders with arbitrary bytes:
// decoding must never panic, must allocate within wireAllocBound, and any
// bytes that decode successfully must re-encode and re-decode to the same
// value (the codec is canonical).
func FuzzWireCodec(f *testing.F) {
	var req request
	fillValue(reflect.ValueOf(&req).Elem(), 1)
	f.Add(appendRequest(nil, &req))
	var resp response
	fillValue(reflect.ValueOf(&resp).Elem(), 2)
	f.Add(appendResponse(nil, &resp))
	f.Add(appendRequest(nil, &request{Op: "submit", Payload: "p"}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q request
		var p response
		var qerr, perr error
		for what, decode := range map[string]func(){
			"request": func() {
				d := codec.NewReader(data, errTruncated)
				qerr = decodeRequest(&d, &q)
			},
			"response": func() {
				d := codec.NewReader(data, errTruncated)
				perr = decodeResponse(&d, &p)
			},
			// The frame reader must terminate with a frame or an error.
			"frame": func() {
				var fio frameIO
				fio.readFrame(bufio.NewReader(bytes.NewReader(data)))
			},
		} {
			if grew := allocated(decode); grew > wireAllocBound(len(data)) {
				t.Fatalf("%s decode of %d bytes allocated %d", what, len(data), grew)
			}
		}
		if qerr == nil {
			d := codec.NewReader(appendRequest(nil, &q), errTruncated)
			var q2 request
			if err := decodeRequest(&d, &q2); err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err)
			}
			if !reflect.DeepEqual(q, q2) {
				t.Fatalf("request not canonical: %+v != %+v", q, q2)
			}
		}
		if perr == nil {
			d := codec.NewReader(appendResponse(nil, &p), errTruncated)
			var p2 response
			if err := decodeResponse(&d, &p2); err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err)
			}
			if !reflect.DeepEqual(p, p2) {
				t.Fatalf("response not canonical: %+v != %+v", p, p2)
			}
		}
	})
}

// TestDecodeResponseAllocationBounded: a response claiming as many elements
// of a collection as its bytes might back allocates within wireAllocBound.
// Each shape is the zero fields up to one collection, a count, and 256 KiB of
// zero bytes, which decode as zero elements. The worst measured shape is a
// StatusMap or CountsMap claiming one entry per 2 bytes: the map sized for
// the claim, 26.7× the message (Go 1.24, amd64), before the message runs out.
func TestDecodeResponseAllocationBounded(t *testing.T) {
	const zeros = 256 << 10
	// Offsets of the collection counts in a zero response: TaskIDs, Tasks,
	// Results, StatusMap, PrioMap, CountsMap, TagList, PeerSvcs, Stats, Events.
	for _, at := range []int{6, 7, 8, 9, 10, 12, 13, 20, 21, 24} {
		for _, per := range []int{1, 2, 6, 9, 11} {
			msg := codec.AppendUvarint(make([]byte, at), zeros/uint64(per))
			msg = append(msg, make([]byte, zeros)...)
			var resp response
			grew := allocated(func() {
				d := codec.NewReader(msg, errTruncated)
				decodeResponse(&d, &resp)
			})
			if grew > wireAllocBound(len(msg)) {
				t.Errorf("count at byte %d claiming one element per %d bytes: %d bytes allocated %d (%.1f×)",
					at, per, len(msg), grew, float64(grew)/float64(len(msg)))
			}
		}
	}
}

// TestWireTaskZeroTimestamps pins the codec's zero-time mapping: an
// unstarted task's zero Started/Stopped travel as 0 and arrive as zero.
func TestWireTaskZeroTimestamps(t *testing.T) {
	task := core.Task{ID: 1, ExpID: "e", Status: core.StatusQueued,
		Payload: "p", Created: time.Unix(0, 12345)}
	if enc := appendTask(nil, &task); !bytes.HasSuffix(enc, []byte{0, 0}) {
		t.Fatalf("zero timestamps encoded as %x, want 0/0 last", enc)
	}
	var dec wireDec
	dec.reset(appendResponse(nil, &response{Tasks: []core.Task{task}}))
	var resp response
	if err := dec.decodeResponse(&resp); err != nil || len(resp.Tasks) != 1 {
		t.Fatalf("decodeResponse = %d tasks, %v; want 1", len(resp.Tasks), err)
	}
	back := resp.Tasks[0]
	if !back.Started.IsZero() || !back.Stopped.IsZero() {
		t.Fatalf("zero timestamps decoded as %v/%v, want zero", back.Started, back.Stopped)
	}
	if !back.Created.Equal(task.Created) {
		t.Fatalf("Created = %v, want %v", back.Created, task.Created)
	}
	// And over a live connection: GetTask on a queued task.
	_, c := newServerClient(t)
	id, err := idOf(c.Submit(bg, "z", 1, "p"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetTask(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Started.IsZero() || !got.Stopped.IsZero() {
		t.Fatalf("unstarted task arrived with Started=%v Stopped=%v, want zero", got.Started, got.Stopped)
	}
	if got.Created.IsZero() {
		t.Fatal("Created should not be zero")
	}
}

// TestWireMalformedFrame pins the v2 malformed path: a garbage frame after a
// valid preamble closes the connection and bumps the malformed counter, and
// a bad version byte does the same.
func TestWireMalformedFrame(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sendRaw := func(raw []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		// Half-close so a server blocked mid-frame sees the hangup at once.
		conn.(*net.TCPConn).CloseWrite()
		// The server must close the connection on a malformed frame.
		conn.SetReadDeadline(time.Now().Add(waitMax))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("server kept the connection open after a malformed frame")
		}
	}

	before := srv.met.malformed.Value()
	// Oversized length prefix: uvarint(1<<40) exceeds maxFrame.
	sendRaw(append([]byte{wireMagic, wireVersion}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20))
	// Torn frame: declares 100 bytes, ships 3, hangs up.
	sendRaw(append([]byte{wireMagic, wireVersion}, 100, 1, 2, 3))
	// Future protocol version.
	sendRaw([]byte{wireMagic, 0x7F})
	if got := srv.met.malformed.Value(); got != before+3 {
		t.Fatalf("malformed counter = %d, want %d", got, before+3)
	}
}

// TestReadFrameAllocatesWhatArrives: a length prefix claiming the largest
// frame, then the end of the stream, allocates about what arrived — a few
// KiB, not the 64 MiB claimed — and the read still reports a truncated frame.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader(binary.AppendUvarint(nil, maxFrame)))
	var f frameIO
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := f.readFrame(r)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTruncated) {
		t.Fatalf("readFrame: %v, want errTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("a %d-byte claim over no body allocated %d bytes", maxFrame, grew)
	}
}

// TestPipelinedOutOfOrder proves the multiplexing contract end to end: a
// long-poll in flight on a Client does not block other calls on the same
// connection, and the server answers them out of order.
func TestPipelinedOutOfOrder(t *testing.T) {
	db, c := newServerClient(t)
	_ = db
	pollDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	go func() {
		// Long-poll for a task that is only submitted after the fast calls
		// below complete — on the same connection.
		res, err := c.QueryTasks(ctx, 42, 1, "pipeline")
		if err == nil && len(res.Tasks) != 1 {
			err = fmt.Errorf("QueryTasks = %+v", res)
		}
		pollDone <- err
	}()
	// Give the poll a moment to be parked server-side.
	time.Sleep(20 * time.Millisecond)
	fastStart := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping behind a long-poll: %v", err)
	}
	if _, err := c.Submit(context.Background(), "fast", 7, "other-type"); err != nil {
		t.Fatalf("Submit behind a long-poll: %v", err)
	}
	if d := time.Since(fastStart); d > time.Second {
		t.Fatalf("pipelined calls took %v — head-of-line blocked behind the poll", d)
	}
	// Now satisfy the poll.
	if _, err := c.Submit(context.Background(), "exp", 42, "wanted"); err != nil {
		t.Fatal(err)
	}
	if err := <-pollDone; err != nil {
		t.Fatalf("long-poll: %v", err)
	}
}

// TestPipelinedConcurrentCallers hammers one shared Client from many
// goroutines (the new concurrency contract) and checks every call lands.
func TestPipelinedConcurrentCallers(t *testing.T) {
	db, c := newServerClient(t)
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Submit(context.Background(), "conc", 1, fmt.Sprintf("%d-%d", g, i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("concurrent submit: %v", err)
	}
	counts, err := db.Counts(context.Background(), "conc")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != goroutines*per {
		t.Fatalf("queued = %d, want %d", counts[core.StatusQueued], goroutines*per)
	}
}

// TestNonBinaryPreambleRejected: the server speaks one protocol. A connection
// that opens with anything but the wire magic — here the JSON line a pre-binary
// client would send — gets no response at all: it is closed, counted as
// malformed and logged with the peer address, while a binary client on the
// same server carries on.
func TestNonBinaryPreambleRejected(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var logs lockedBuf
	srv, err := Serve(db, "127.0.0.1:0", WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	malformed := func() float64 {
		return obs.Flatten(srv.met.reg.Gather())["osprey_service_malformed_total"]
	}

	// The binary client is connected, with a long-poll parked, before the
	// stray connection arrives and is still served after it is dropped.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	popped := make(chan error, 1)
	go func() {
		pctx, cancel := context.WithTimeout(ctx, waitMax)
		defer cancel()
		res, err := c.QueryTasks(pctx, 3, 1, "binary")
		if err == nil && len(res.Tasks) != 1 {
			err = fmt.Errorf("popped %d tasks, want 1", len(res.Tasks))
		}
		popped <- err
	}()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping before: %v", err)
	}
	before := malformed()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{\"op\":\"ping\"}\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(waitMax))
	if reply, err := io.ReadAll(conn); err != nil || len(reply) != 0 {
		t.Fatalf("JSON preamble got reply %q, err %v; want the connection closed with no bytes", reply, err)
	}
	if got := malformed(); got != before+1 {
		t.Fatalf("osprey_service_malformed_total = %v, want %v", got, before+1)
	}
	if out := logs.String(); !strings.Contains(out, "level=WARN") ||
		!strings.Contains(out, "peer="+conn.LocalAddr().String()) {
		t.Fatalf("rejection not logged at Warn with the peer address:\n%s", out)
	}

	if _, err := c.Submit(ctx, "after", 3, "still-served"); err != nil {
		t.Fatalf("binary Submit after the rejection: %v", err)
	}
	if err := <-popped; err != nil {
		t.Fatalf("binary long-poll parked across the rejection: %v", err)
	}
}

// v4RequestFrame is one request frame — frameLen | request ID 99 | message —
// exactly as the last build that still carried request.TimeMS encoded it at
// wire version 4, with every field set (TimeMS was 777). The bytes are
// copied from that build's output, not produced by today's encoder.
const v4RequestFrame = "68630b71756572795f7461736b73103031323334353637383961626364656601ac02b817" +
	"067374726f6e67026b310201610162036578700e077b2278223a317d050102743154030204d8040a06706f6f6c2d61" +
	"920c037265730212110202703102703204747970650b"

// TestWireV4FramePinned keeps the two reserved slots executable: a v4 frame
// from before request.TimeMS and request.Fwd were deleted still decodes field
// for field (each slot's value is read and dropped), and today's encoder
// differs from it in those slots only — it writes zero there, in the same
// positions.
func TestWireV4FramePinned(t *testing.T) {
	if wireVersion != 4 {
		t.Fatalf("wireVersion = %d; this pin is the v4 layout — add a pin for the new version, keep this one", wireVersion)
	}
	pinned, err := hex.DecodeString(v4RequestFrame)
	if err != nil {
		t.Fatal(err)
	}
	want := request{
		Op: "query_tasks", Trace: "0123456789abcdef", Token: 300, WaitMS: 1500,
		Level: "strong", DedupKey: "k1", DedupKeys: []string{"a", "b"}, ExpID: "exp",
		WorkType: 7, Payload: `{"x":1}`, Priority: -3, Tags: []string{"t1"},
		TaskID: 42, TaskIDs: []int64{1, 2, 300}, N: 5, Pool: "pool-a",
		Result: "res", Priorities: []int{9, -9}, Payloads: []string{"p1", "p2"},
		Watch: "type", SubID: 11,
	}
	var f frameIO
	id, got, err := f.readRequest(bufio.NewReader(bytes.NewReader(pinned)))
	if err != nil {
		t.Fatalf("decoding the pinned v4 frame: %v", err)
	}
	if id != 99 {
		t.Fatalf("request ID = %d, want 99", id)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned v4 frame decoded to\n%+v\nwant\n%+v", got, want)
	}

	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := f.writeRequest(bw, 99, &want); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	expect := pinned
	for _, slot := range []struct{ old, now string }{
		// Fwd was true (0x01) after the trace; false is 0x00, the same width.
		{"0123456789abcdef\x01\xac\x02", "0123456789abcdef\x00\xac\x02"},
		// 777 is the two-byte varint 0x92 0x0c; zero is the single byte 0x00.
		{"\x06pool-a\x92\x0c\x03res", "\x06pool-a\x00\x03res"},
	} {
		if bytes.Count(expect, []byte(slot.old)) != 1 {
			t.Fatalf("test bug: the reserved slot %q is not where the pin expects it", slot.old)
		}
		expect = bytes.Replace(expect, []byte(slot.old), []byte(slot.now), 1)
	}
	expect[0]-- // frameLen: the TimeMS slot shrank by one byte
	if !bytes.Equal(buf.Bytes(), expect) {
		t.Fatalf("today's encoding differs from the v4 layout beyond the reserved slots:\n got %x\nwant %x", buf.Bytes(), expect)
	}
}

// v4ResponseFrame is one response frame (request ID 77) as the last build
// whose response carried mirror structs (wireTask, wireResult, string-keyed
// status maps) encoded it at wire version 4. The bytes are copied from that
// build's output, not produced by today's encoder. Each map has one entry, so
// the encoding has one order.
const v4ResponseFrame = "a2014d0100000092210000020e036578700406717565756564077b2278223a317d0000" +
	"068280d0e2c6bfce972f000010036578700408636f6d706c657465077b2278223a327d02723806706f6f6c2d6101" +
	"8480d0e2c6bfce972f8094bbbfcabfce972f80a8a69ccebfce972f0110027238011008636f6d706c65746500000108" +
	"636f6d706c657465020000000000000000000000019221100408636f6d706c6574650000"

// TestWireV4ResponsePinned pins the response layout the codec now writes
// from core's own types: a v4 frame with an unstarted task (zero Started and
// Stopped travel as 0), a finished one, a result, a status and a count map
// entry and an event decodes field for field, and re-encodes byte for byte.
func TestWireV4ResponsePinned(t *testing.T) {
	if wireVersion != 4 {
		t.Fatalf("wireVersion = %d; this pin is the v4 layout — add a pin for the new version, keep this one", wireVersion)
	}
	pinned, err := hex.DecodeString(v4ResponseFrame)
	if err != nil {
		t.Fatal(err)
	}
	want := response{
		OK: true, Token: 4242,
		Tasks: []core.Task{
			{ID: 7, ExpID: "exp", WorkType: 2, Status: core.StatusQueued, Payload: `{"x":1}`, Priority: 3,
				Created: time.Unix(0, 1700000000000000001)},
			{ID: 8, ExpID: "exp", WorkType: 2, Status: core.StatusComplete, Payload: `{"x":2}`, Result: "r8",
				Pool: "pool-a", Priority: -1, Created: time.Unix(0, 1700000000000000002),
				Started: time.Unix(0, 1700000000500000000), Stopped: time.Unix(0, 1700000001000000000)},
		},
		Results:   []core.TaskResult{{ID: 8, Result: "r8"}},
		StatusMap: map[int64]core.Status{8: core.StatusComplete},
		CountsMap: map[core.Status]int{core.StatusComplete: 1},
		Events:    []watch.Event{{Token: 4242, TaskID: 8, WorkType: 2, Status: string(core.StatusComplete)}},
	}
	var f frameIO
	var got response
	id, err := f.readResponse(bufio.NewReader(bytes.NewReader(pinned)), &got)
	if err != nil {
		t.Fatalf("decoding the pinned v4 response: %v", err)
	}
	if id != 77 {
		t.Fatalf("request ID = %d, want 77", id)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned v4 response decoded to\n%+v\nwant\n%+v", got, want)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := f.writeResponse(bw, 77, &want); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if !bytes.Equal(buf.Bytes(), pinned) {
		t.Fatalf("today's encoding differs from the v4 layout:\n got %x\nwant %x", buf.Bytes(), pinned)
	}
}

// TestWireFrameRoundTrip pins the framing layer: IDs and bodies survive,
// back-to-back frames parse in order, and a frame beyond the bound errors.
func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var fw frameIO
	reqs := []request{
		{Op: "ping"},
		{Op: "submit", Payload: strings.Repeat("x", 1000), TaskIDs: []int64{1, -2, 3}},
		{Op: "statuses", Token: 1 << 60},
	}
	for i, q := range reqs {
		if err := fw.writeRequest(bw, uint64(i)+7, &q); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	br := bufio.NewReader(&buf)
	var fr frameIO
	for i, want := range reqs {
		id, got, err := fr.readRequest(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i)+7 {
			t.Fatalf("frame %d: id = %d, want %d", i, id, uint64(i)+7)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
}
