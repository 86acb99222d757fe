package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"osprey/internal/codec"
	"osprey/internal/core"
	"osprey/internal/minisql"
)

// pinnedFrames are the frame codec's promise in bytes: an entries frame, an
// ack and a heartbeat carrying peers, as a replication version 4 build
// writes them. A change here is a new protocol version.
var pinnedFrames = []struct {
	f   frame
	hex string
}{
	{
		frame{Type: frameEntries, Term: 3, Records: []byte("rec"), Last: 300, Committed: 299},
		// length 11 | type 7 | mask Term|Records|Last|Committed | 3 | "rec" | 300 | 299
		"0b" + "07" + "0f" + "03" + "03726563" + "ac02" + "ab02",
	},
	{
		frame{Type: frameAck, Applied: 300},
		// length 4 | type 6 | mask Applied | 300
		"04" + "06" + "10" + "ac02",
	},
	{
		frame{Type: frameHeartbeat, Term: 3, Role: RoleLeader, Applied: 300, Committed: 299,
			LeaderID: "n1", LeaderRepl: "r1", LeaderSvc: "s1", Peers: []Peer{
				{ID: "n1", Priority: 2, ReplAddr: "r1", SvcAddr: "s1"},
				{ID: "n2", Priority: -1, ReplAddr: "r2"},
			}},
		// length 38 | type 5 | mask Term|Committed|Applied|Role|LeaderID|
		// LeaderRepl|LeaderSvc|Peers (0x3f9) | 3 | 299 | 300 | leader |
		// "n1" "r1" "s1" | 2 peers: mask 0xf "n1" zigzag(2) "r1" "s1", mask 0x7
		// "n2" zigzag(-1) "r2"
		"26" + "05" + "f907" + "03" + "ab02" + "ac02" + "01" + "026e31" + "027231" + "027331" +
			"02" + "0f" + "026e31" + "04" + "027231" + "027331" + "07" + "026e32" + "01" + "027232",
	},
}

// TestReplFramePinned: the writer produces exactly the pinned bytes, and the
// reader decodes them back to the frame written.
func TestReplFramePinned(t *testing.T) {
	for _, p := range pinnedFrames {
		var buf bytes.Buffer
		w := frameWriter{w: &buf}
		if err := w.write(&p.f); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != p.hex {
			t.Fatalf("frame type %d encodes as\n %s\nwant\n %s", p.f.Type, got, p.hex)
		}
		var got frame
		if err := newFrameReader(&buf).read(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p.f) {
			t.Fatalf("frame type %d decodes as\n %+v\nwant\n %+v", p.f.Type, got, p.f)
		}
	}
}

// cycle is an endless stream of the same bytes.
type cycle struct {
	b   []byte
	off int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := copy(p, c.b[c.off:])
	c.off = (c.off + n) % len(c.b)
	return n, nil
}

// TestFrameHotPathAllocs: the frames of the replication hot path — an
// entries frame and a steady leader's heartbeat on the follower, an ack on
// the leader — encode and decode into reused buffers and a reused frame with
// no allocation.
func TestFrameHotPathAllocs(t *testing.T) {
	recs := bytes.Repeat([]byte("record bytes "), 40)
	for _, f := range []frame{
		{Type: frameEntries, Term: 7, Records: recs, Last: 1 << 20, Committed: 1<<20 - 3},
		{Type: frameAck, Applied: 1 << 20},
		pinnedFrames[2].f,
	} {
		var buf bytes.Buffer
		w := frameWriter{w: &buf}
		if err := w.write(&f); err != nil {
			t.Fatal(err)
		}
		rd := newFrameReader(&cycle{b: buf.Bytes()})
		var got frame
		if allocs := testing.AllocsPerRun(100, func() {
			if err := rd.read(&got); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 || !reflect.DeepEqual(got, f) {
			t.Fatalf("frame type %d: %v allocs per decode (want 0), decoded %+v", f.Type, allocs, got)
		}
		w.w = &bytes.Buffer{}
		if allocs := testing.AllocsPerRun(100, func() { w.buf = w.buf[:0]; w.write(&f) }); allocs != 0 {
			t.Fatalf("frame type %d: %v allocs per encode, want 0", f.Type, allocs)
		}
	}
}

// TestFrameReaderRefusesOversizedClaim: a length past maxFrameSize is refused
// before a byte of body is read, and one within it but never delivered
// allocates no more than the bytes that did arrive.
func TestFrameReaderRefusesOversizedClaim(t *testing.T) {
	huge := binary.AppendUvarint(nil, uint64(maxFrameSize)+1)
	if err := newFrameReader(bytes.NewReader(huge)).read(new(frame)); !errors.Is(err, errBadFrame) {
		t.Fatalf("a %d-byte claim: err = %v, want errBadFrame", uint64(maxFrameSize)+1, err)
	}
	short := append(binary.AppendUvarint(nil, maxFrameSize), bytes.Repeat([]byte{0xEE}, 100<<10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := newFrameReader(bytes.NewReader(short)).read(new(frame))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a maxFrameSize claim over 100 KiB decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(short)) {
		t.Fatalf("a maxFrameSize claim over %d bytes allocated %d bytes", len(short), grew)
	}
}

// FuzzDecodeFrame: whatever arrives on a replication socket, the reader never
// panics, allocates in proportion to the bytes it was given, and every frame
// it accepts survives a round trip as a value.
func FuzzDecodeFrame(f *testing.F) {
	peers := []Peer{{ID: "a", Priority: 3, ReplAddr: "ra", SvcAddr: "sa"}, {ID: "b"}}
	seeds := []frame{
		{Type: frameJoin, Term: 2, Peer: peers[0], From: 9, AppliedTerm: 1, ForceSnapshot: true},
		{Type: frameProbe, Peer: peers[1]},
		{Type: frameStatus, Term: 2, Role: RoleLeader, Applied: 9, AppliedTerm: 2, Granted: true, LeaderID: "a"},
		{Type: frameNotLeader, Term: 2, LeaderID: "a", LeaderRepl: "ra", LeaderSvc: "sa"},
		{Type: frameSnapshot, Term: 2, SnapIndex: 9, Peers: peers},
		{Type: frameChunk, Records: []byte("checkpoint records")},
		{Type: frameSnapEnd},
		{Type: frameClaim, Term: 3, Peer: peers[0], Applied: 9, AppliedTerm: 2},
	}
	for _, p := range pinnedFrames {
		seeds = append(seeds, p.f)
	}
	var stream []byte
	for _, s := range seeds {
		var buf bytes.Buffer
		w := frameWriter{w: &buf}
		w.write(&s)
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		stream = append(stream, buf.Bytes()...)
	}
	f.Add(stream)
	f.Add([]byte{0x02, 0x05, 0x80}) // a mask with a continuation and no end
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := newFrameReader(bytes.NewReader(data))
		var fr frame
		for rd.read(&fr) == nil {
		}
		runtime.ReadMemStats(&after)
		// Peers cost the most per byte: 56 bytes of Peer for a one-byte empty
		// peer, twice over while the slice grows; the constant is the reader.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(data))+64<<10 {
			t.Fatalf("%d bytes allocated %d", len(data), grew)
		}
		for rd := newFrameReader(bytes.NewReader(data)); rd.read(&fr) == nil; {
			var once, twice bytes.Buffer
			w := frameWriter{w: &once}
			w.write(&fr)
			var again frame
			if err := newFrameReader(bytes.NewReader(once.Bytes())).read(&again); err != nil {
				t.Fatalf("re-encoded %+v does not decode: %v", fr, err)
			}
			w.w = &twice
			w.write(&again)
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("accepted frame does not round-trip:\n first %+v\nsecond %+v", fr, again)
			}
		}
	})
}

// TestSetAppliedNoWaiterAllocs: advancing the applied index with nobody in
// WaitApplied allocates nothing — the channel is made by a waiter.
func TestSetAppliedNoWaiterAllocs(t *testing.T) {
	n := &Node{}
	if allocs := testing.AllocsPerRun(100, func() { n.setApplied(n.st.applied + 1) }); allocs != 0 {
		t.Fatalf("setApplied with no waiter: %v allocs, want 0", allocs)
	}
}

// parkedWait starts WaitApplied(idx) and returns once it is blocked on the
// applied signal, with the channel its result arrives on.
func parkedWait(t *testing.T, n *Node, idx uint64) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.WaitApplied(idx, waitMax) }()
	waitFor(t, "the waiter to park", n.applied.Waiting)
	return done
}

func wantWoken(t *testing.T, what string, done <-chan error) {
	t.Helper()
	if err := <-done; err != nil {
		t.Fatalf("WaitApplied parked before %s: %v", what, err)
	}
}

// shippedRecords returns the records of n tasks submitted on a fresh leader,
// back to back as a frameEntries frame carries them, and the last index.
func shippedRecords(t *testing.T, n int) ([]byte, uint64) {
	t.Helper()
	src := newNode(t, "src", 3, "")
	defer src.Close()
	submitN(t, src.DB(), n)
	recs, _ := src.log.RecordsSince(nil, 0)
	var b []byte
	for _, r := range recs {
		b = append(b, r.Data...)
	}
	return b, recs[len(recs)-1].Index
}

// TestWaitAppliedWakesOnApplyAndInstall: a WaitApplied that parked before a
// shipped entry is applied, or before a snapshot is installed, wakes.
func TestWaitAppliedWakesOnApplyAndInstall(t *testing.T) {
	recs, last := shippedRecords(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lead := &fakeLeader{t: t, ln: ln}
	fol := newNode(t, "waiter", 1, ln.Addr().String())
	defer fol.Close()
	_, stream := lead.accept()
	defer stream.close()

	done := parkedWait(t, fol, last)
	stream.send(frame{Type: frameEntries, Term: 1, Records: recs, Last: last})
	wantWoken(t, "an apply", done)

	empty, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	var snap bytes.Buffer
	if err := empty.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	done = parkedWait(t, fol, last+10)
	stream.sendSnapshot(frame{Term: 1, Role: RoleLeader, SnapIndex: last + 10}, snap.Bytes())
	wantWoken(t, "an install", done)
}

// TestFollowerInternsPreparedSQL: a follower replays a core statement with
// the pinned handle's own SQL string — the text it decodes is not copied —
// and a record of text it never prepared (DDL, then a write to the new
// table) still applies.
func TestFollowerInternsPreparedSQL(t *testing.T) {
	recs, last := shippedRecords(t, 1)
	adhoc := minisql.EncodeRecord(nil, minisql.LogEntry{Index: last + 1, Stmts: []minisql.Stmt{
		{SQL: "CREATE TABLE extra (id INTEGER)"}}})
	adhoc = minisql.EncodeRecord(adhoc, minisql.LogEntry{Index: last + 2, Stmts: []minisql.Stmt{
		{SQL: "INSERT INTO extra (id) VALUES (?)", Args: []minisql.Value{minisql.Int64(1)}}}})
	batch := append(recs, adhoc...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lead := &fakeLeader{t: t, ln: ln}
	fol := newNode(t, "interner", 1, ln.Addr().String())
	defer fol.Close()
	type applied struct {
		sql  string
		data *byte
	}
	var mu sync.Mutex
	var seen []applied
	fol.eng.SetCommitObserver(func(_ uint64, stmts []minisql.Stmt) {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range stmts {
			seen = append(seen, applied{s.SQL, unsafe.StringData(s.SQL)})
		}
	})
	_, stream := lead.accept()
	defer stream.close()
	stream.send(frame{Type: frameEntries, Term: 1, Records: batch, Last: last + 2})
	waitFor(t, "the batch to apply", func() bool { return fol.Applied() == last+2 })
	if n := fol.eng.TableRows("extra"); n != 1 {
		t.Fatalf("ad-hoc DDL and insert applied %d rows, want 1", n)
	}

	// A second decode through the same engine: pinned text comes back as the
	// same string, ad-hoc text as a fresh copy.
	var again minisql.LogEntry
	var text codec.Text
	var want []*byte
	for b := batch; len(b) > 0; {
		size, err := fol.eng.DecodeRecordInto(&again, &text, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range again.Stmts {
			want = append(want, unsafe.StringData(s.SQL))
		}
		b = b[size:]
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(want) {
		t.Fatalf("observed %d applied statements, decoded %d", len(seen), len(want))
	}
	for i, s := range seen {
		pinned := i < len(seen)-2
		if shared := s.data == want[i]; shared != pinned {
			t.Fatalf("statement %d %q: shares the decoder's string %v, want %v", i, s.sql, shared, pinned)
		}
	}
}
