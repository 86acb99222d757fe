package replica

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
)

// fakeFollower is a hand-rolled replication peer: it joins the leader over
// raw frames and lets the test control exactly when entries are "applied"
// and acked, which is how the batching tests observe frame boundaries the
// real follower hides.
type fakeFollower struct {
	t    *testing.T
	conn net.Conn
	w    frameWriter
	rd   *frameReader
}

func newFake(t *testing.T, conn net.Conn) *fakeFollower {
	return &fakeFollower{t: t, conn: conn, w: frameWriter{w: conn}, rd: newFrameReader(conn)}
}

func joinFake(t *testing.T, addr string, id string, term, from uint64) *fakeFollower {
	t.Helper()
	f := newFake(t, dialRepl(t, addr))
	f.send(frame{Type: frameJoin, Term: term, AppliedTerm: term, From: from,
		Peer: Peer{ID: id, ReplAddr: "127.0.0.1:1", SvcAddr: "svc-" + id}})
	hello := f.next()
	if hello.Type != frameHeartbeat {
		t.Fatalf("resume join got frame type %d, want heartbeat hello", hello.Type)
	}
	return f
}

// next reads one frame. Its Records hold until the next read.
func (f *fakeFollower) next() frame {
	f.t.Helper()
	var fr frame
	if err := f.rd.read(&fr); err != nil {
		f.t.Fatalf("fake follower read: %v", err)
	}
	return fr
}

// nextEntries skips heartbeats until a data frame arrives and returns the
// indexes of the records it carries, each record checked by the one decoder
// a real follower uses; the frame's Last must name the final one.
func (f *fakeFollower) nextEntries() []uint64 {
	f.t.Helper()
	for {
		fr := f.next()
		if fr.Type != frameEntries {
			continue
		}
		var idxs []uint64
		for b := fr.Records; len(b) > 0; {
			ent, size, err := minisql.DecodeRecord(b)
			if err != nil {
				f.t.Fatalf("shipped record %d: %v", len(idxs), err)
			}
			idxs = append(idxs, ent.Index)
			b = b[size:]
		}
		if len(idxs) == 0 || fr.Last != idxs[len(idxs)-1] {
			f.t.Fatalf("frameEntries carries indexes %v with Last=%d", idxs, fr.Last)
		}
		return idxs
	}
}

func (f *fakeFollower) ack(applied uint64) {
	f.t.Helper()
	f.send(frame{Type: frameAck, Applied: applied})
}

func (f *fakeFollower) close() { f.conn.Close() }

// TestBatchShippingAndBatchAck: entries committed while a follower is behind
// ship as ONE frameEntries frame, and the follower's single cumulative ack
// at the batch high-water mark advances the quorum watermark for every entry
// in it — WaitQuorumIndex on the FIRST entry of the batch returns on that
// ack, not after any group-commit flush deadline (set here to an hour to
// make waiting on it unmistakable).
func TestBatchShippingAndBatchAck(t *testing.T) {
	leader, err := New(Config{
		ID: "gb1", Priority: 3,
		Heartbeat: beat, ElectionTimeout: elect,
		WriteQuorum: 1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leader.groupCommit = time.Hour
	leader.SetServiceAddr("svc-gb1")
	leader.Start()

	// One sentinel write fixes the resume point, then five more form the
	// batch the fake follower will receive in a single frame.
	submitN(t, leader.DB(), 1)
	base := leader.Applied()
	ids := submitN(t, leader.DB(), 5)
	if len(ids) != 5 {
		t.Fatalf("submitted %d", len(ids))
	}
	high := leader.Applied()

	fol := joinFake(t, leader.Addr(), "gbf", leader.Term(), base)
	defer fol.close()
	idxs := fol.nextEntries()
	if len(idxs) != int(high-base) {
		t.Fatalf("batch carries %d entries, want %d in one frame", len(idxs), high-base)
	}
	for i, idx := range idxs {
		if want := base + uint64(i) + 1; idx != want {
			t.Fatalf("entry %d has index %d, want %d", i, idx, want)
		}
	}

	// Single cumulative ack at the batch high-water mark.
	fol.ack(high)
	start := time.Now()
	if err := leader.WaitQuorumIndex(base + 1); err != nil {
		t.Fatalf("WaitQuorumIndex(first entry of batch): %v", err)
	}
	if d := time.Since(start); d > waitMax/2 {
		t.Fatalf("quorum wait on first batch entry took %v — it must ride the batch ack", d)
	}
	// And the watermark covers the whole batch, not just the first entry.
	if err := leader.WaitQuorumIndex(high); err != nil {
		t.Fatalf("WaitQuorumIndex(batch high-water): %v", err)
	}
}

// TestMidBatchDeathReships: a follower that dies after applying only a
// prefix of a batch re-joins at its applied index and the leader re-ships
// exactly the unapplied suffix.
func TestMidBatchDeathReships(t *testing.T) {
	leader, err := New(Config{
		ID: "gb2", Priority: 3,
		Heartbeat: beat, ElectionTimeout: elect,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leader.SetServiceAddr("svc-gb2")
	leader.Start()

	submitN(t, leader.DB(), 1)
	base := leader.Applied()
	submitN(t, leader.DB(), 6)
	high := leader.Applied()

	fol := joinFake(t, leader.Addr(), "gbf2", leader.Term(), base)
	if idxs := fol.nextEntries(); len(idxs) != int(high-base) {
		t.Fatalf("got %d entries, want the full %d-entry batch", len(idxs), high-base)
	}
	// "Die" mid-batch: ack only the first half, then drop the connection.
	mid := base + (high-base)/2
	fol.ack(mid)
	fol.close()

	// The re-join announces the mid-batch position; the leader must resume
	// from exactly there — re-shipping mid+1..high, nothing more, no
	// snapshot bootstrap.
	re := joinFake(t, leader.Addr(), "gbf2", leader.Term(), mid)
	defer re.close()
	idxs := re.nextEntries()
	if idxs[0] != mid+1 {
		t.Fatalf("re-shipped batch starts at %d, want %d", idxs[0], mid+1)
	}
	if last := idxs[len(idxs)-1]; last != high {
		t.Fatalf("re-shipped batch ends at %d, want %d", last, high)
	}
}

// fakeLeader is fakeFollower's counterpart: a listener that answers a real
// follower's joins by hand, so a test decides byte for byte what the
// follower is shipped.
type fakeLeader struct {
	t  *testing.T
	ln net.Listener
}

// accept takes the follower's next connection through preamble and join,
// answers with a resume hello, and returns the join frame and the stream.
func (l *fakeLeader) accept() (frame, *fakeFollower) {
	l.t.Helper()
	conn, err := l.ln.Accept()
	if err != nil {
		l.t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(waitMax))
	var pre [2]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil || pre != [2]byte{replMagic, replVersion} {
		l.t.Fatalf("follower opened with % x (err %v), want the protocol preamble", pre, err)
	}
	s := newFake(l.t, conn)
	join := s.next()
	if join.Type != frameJoin {
		l.t.Fatalf("first frame has type %d, want a join", join.Type)
	}
	me := Peer{ID: "fake-leader", Priority: 9, ReplAddr: l.ln.Addr().String(), SvcAddr: "svc-fake"}
	s.send(frame{Type: frameHeartbeat, Term: 1, Role: RoleLeader, Peers: []Peer{me, join.Peer},
		LeaderID: me.ID, LeaderRepl: me.ReplAddr, LeaderSvc: me.SvcAddr})
	return join, s
}

func (f *fakeFollower) send(fr frame) {
	f.t.Helper()
	if err := f.w.write(&fr); err != nil {
		f.t.Fatal(err)
	}
}

// sendSnapshot bootstraps the follower as a leader does: the hello, the
// checkpoint as one chunk frame, and the end frame.
func (f *fakeFollower) sendSnapshot(hello frame, ckpt []byte) {
	f.t.Helper()
	hello.Type = frameSnapshot
	f.send(hello)
	f.send(frame{Type: frameChunk, Records: ckpt})
	f.send(frame{Type: frameSnapEnd})
}

// TestGranterJoinsLeaderOutsideItsView reproduces the election livelock: n2
// joined a leader that died before any frame told it about n3, so its view
// is {leader, n2} and on its own it can never reach a majority. n3, whose
// view holds all three, claims; n2 grants — and must then find the node it
// voted for, although its view never named it. Before the grant adopted the
// claimant into the view, n2 went on probing {leader, n2} forever while n3,
// re-granted term after term, stepped down each time for lack of an ack.
func TestGranterJoinsLeaderOutsideItsView(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lead := &fakeLeader{t: t, ln: ln}
	me := Peer{ID: "fake-leader", Priority: 9, ReplAddr: ln.Addr().String(), SvcAddr: "svc-fake"}
	empty, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	var snap bytes.Buffer
	if err := empty.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// bootstrap makes the joiner a member (only a snapshot install does) and
	// hands it the given view.
	bootstrap := func(s *fakeFollower, view ...Peer) {
		s.sendSnapshot(frame{Term: 1, Role: RoleLeader,
			Peers: view, LeaderID: me.ID, LeaderRepl: me.ReplAddr, LeaderSvc: me.SvcAddr}, snap.Bytes())
	}

	n2 := newNode(t, "n2", 2, ln.Addr().String())
	defer n2.Close()
	join2, stream2 := lead.accept()
	bootstrap(stream2, me, join2.Peer)
	n3 := newNode(t, "n3", 1, ln.Addr().String())
	defer n3.Close()
	join3, stream3 := lead.accept()
	bootstrap(stream3, me, join2.Peer, join3.Peer)
	waitFor(t, "both to bootstrap", func() bool {
		return n2.met.snapsInstall.Value() == 1 && n3.met.snapsInstall.Value() == 1
	})
	if n2, n3 := len(n2.Peers()), len(n3.Peers()); n2 != 2 || n3 != 3 {
		t.Fatalf("views hold %d and %d members, want n2's stale 2 beside n3's 3", n2, n3)
	}

	ln.Close()
	stream2.close()
	stream3.close()

	// n3 claims first; once n2's view holds it either may win a later round.
	waitFor(t, "the survivors to pair up as leader and follower", func() bool {
		_, n2Follows := n3.Status().Followers["n2"]
		_, n3Follows := n2.Status().Followers["n3"]
		return n2Follows || n3Follows
	})
}

// TestCorruptShippedRecordRejected: a batch whose second record is damaged
// in transit — one flipped bit, or a tail cut short — is a stream error, not
// divergence. The follower applies the intact first record and nothing of
// the second, acks nothing from that frame, drops the connection, re-joins
// at its own position (a resume, not the forced snapshot of an apply
// failure) and converges once the leader ships clean bytes.
func TestCorruptShippedRecordRejected(t *testing.T) {
	src := newNode(t, "src", 3, "")
	defer src.Close()
	submitN(t, src.DB(), 4)
	recs, _ := src.log.RecordsSince(nil, 0)
	concat := func(recs []minisql.Record) (b []byte) {
		for _, r := range recs {
			b = append(b, r.Data...)
		}
		return b
	}
	// The second record's last byte is argument data, which only the CRC
	// can tell from the original.
	flipped := concat(recs)
	flipped[len(recs[0].Data)+len(recs[1].Data)-1] ^= 0x10
	cut := concat(recs[:2])
	cut = cut[:len(cut)-5]
	for name, damaged := range map[string][]byte{"bit flip": flipped, "truncated tail": cut} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			lead := &fakeLeader{t: t, ln: ln}
			fol := newNode(t, "victim", 1, ln.Addr().String())
			defer fol.Close()

			_, stream := lead.accept()
			stream.send(frame{Type: frameEntries, Term: 1, Records: damaged, Last: recs[len(recs)-1].Index})
			var fr frame
			for stream.rd.read(&fr) == nil { // until the follower hangs up
				if fr.Type == frameAck && fr.Applied != 0 {
					t.Fatalf("follower acked %d out of a damaged frame", fr.Applied)
				}
			}
			stream.close()
			if got := fol.Applied(); got != 1 {
				t.Fatalf("follower applied through %d, want exactly the intact first record", got)
			}

			join, stream := lead.accept()
			defer stream.close()
			if join.From != 1 || join.AppliedTerm != 1 {
				t.Fatalf("re-join announces (term %d, index %d), want a resume from (1, 1)", join.AppliedTerm, join.From)
			}
			stream.send(frame{Type: frameEntries, Term: 1, Records: concat(recs[1:]), Last: recs[len(recs)-1].Index})
			waitFor(t, "convergence on clean bytes", func() bool { return fol.Applied() == recs[len(recs)-1].Index })
			if got := queuedCount(t, fol.DB()); got != 4 {
				t.Fatalf("follower sees %d queued, want 4", got)
			}
			if got := fol.met.snapsInstall.Value(); got != 0 {
				t.Fatalf("follower installed %d snapshots, want none", got)
			}
		})
	}
}

// oldBuildProbe opens what a build from before the preamble sent for a
// probe, frame{Type: frameProbe, Peer: Peer{ID: "old-build"}}: a bare gob
// stream, the frame type's definition first (its first 64 bytes).
const oldBuildProbe = "" +
	"ffed7f030101056672616d6501ff800001120104547970650106000104546572" +
	"6d01060001045065657201ff8200010446726f6d010600010d466f726365536e"

// TestPreambleMismatchRejected: a connection that does not open with this
// build's preamble — here what a pre-preamble build sends, a bare gob frame,
// a future protocol version, version 1, the gob-speaking version 3 and
// version 4, whose snapshots are gob — is closed unanswered, counted, and
// logged with the peer's address; a well-formed probe beside them is served.
func TestPreambleMismatchRejected(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	n, err := New(Config{ID: "p1", Heartbeat: beat, ElectionTimeout: elect, Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()

	bare, err := hex.DecodeString(oldBuildProbe)
	if err != nil {
		t.Fatal(err)
	}
	// A preamble-less build, a newer build, a version-1 build (whose engine
	// replays only the first argument row of a set-based write), a version-3
	// build, whose frames are gob, and a version-4 build, whose frames are
	// this codec's but whose snapshot frames carry a gob checkpoint.
	var v4 bytes.Buffer
	(&frameWriter{w: &v4}).write(&frame{Type: frameProbe, Peer: Peer{ID: "v4-build"}})
	openings := [][]byte{bare, {replMagic, replVersion + 1}, {replMagic, 1}, append([]byte{replMagic, 3}, bare...),
		append([]byte{replMagic, 4}, v4.Bytes()...)}
	for i, opening := range openings {
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(waitMax))
		conn.Write(opening)
		// EOF or, when the close overtook unread bytes, a reset.
		if b, err := io.ReadAll(conn); len(b) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("opening %d: read %d bytes, err %v; want an unanswered close", i, len(b), err)
		}
		waitFor(t, "malformed counter", func() bool { return n.met.malformed.Value() == uint64(i+1) })
		mu.Lock()
		logged := strings.Join(lines, "\n")
		mu.Unlock()
		if !strings.Contains(logged, "warning") || !strings.Contains(logged, conn.LocalAddr().String()) {
			t.Fatalf("opening %d: no warning naming peer %s in:\n%s", i, conn.LocalAddr(), logged)
		}
		conn.Close()
	}

	if st := dialJoin(t, n.Addr(), frame{Type: frameProbe, Peer: Peer{ID: "new-build"}}); st.Type != frameStatus || st.Role != RoleLeader {
		t.Fatalf("well-formed probe: %+v", st)
	}
	if got := n.met.malformed.Value(); got != uint64(len(openings)) {
		t.Fatalf("malformed counter = %d after a well-formed probe, want %d", got, len(openings))
	}
}
