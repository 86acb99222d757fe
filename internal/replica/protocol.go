package replica

import (
	"bufio"
	"errors"
	"io"
	"sort"

	"osprey/internal/codec"
	"osprey/internal/minisql"
	"osprey/internal/obs"
)

// Role is a node's position in the cluster.
type Role int32

// Cluster roles.
const (
	RoleFollower Role = iota
	RoleLeader
)

func (r Role) String() string {
	if r == RoleLeader {
		return "leader"
	}
	return "follower"
}

// Peer identifies one cluster member: its replication endpoint (log
// shipping), its EMEWS service endpoint (client traffic), and its promotion
// priority. The leader broadcasts the full peer list in every heartbeat so
// followers can run the deterministic promotion protocol without a separate
// membership service.
type Peer struct {
	ID       string
	Priority int
	ReplAddr string
	SvcAddr  string
}

// rankPeers orders peers by promotion rank: highest priority first, ties
// broken by lowest ID. Every node computes the same order from the same
// peer list, which is what makes failover deterministic.
func rankPeers(peers []Peer) {
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].Priority != peers[j].Priority {
			return peers[i].Priority > peers[j].Priority
		}
		return peers[i].ID < peers[j].ID
	})
}

// frameType tags one message of the log-shipping protocol.
type frameType uint8

const (
	// frameJoin: follower -> leader. Announce identity, term, and last
	// applied index. The leader replies with a snapshot, or — when the
	// joiner is resuming within the leader's own term and the WAL still
	// holds its position — a frameHeartbeat hello followed by the entries
	// after From (incremental catch-up, no re-bootstrap). ForceSnapshot asks
	// for a snapshot regardless; From 0 means only "nothing applied".
	frameJoin frameType = iota
	// frameProbe: any -> any. Ask a node for its role, known leader, and
	// applied index; answered with frameStatus. Used during elections (the
	// majority + log gate) and counted toward the receiving leader's
	// majority lease. Carries the prober's Peer identity.
	frameProbe
	// frameStatus: reply to frameProbe.
	frameStatus
	// frameNotLeader: join/probe reached a non-leader; carries the sender's
	// best guess at the current leader.
	frameNotLeader
	// frameSnapshot: leader -> follower. The hello of a bootstrap: the
	// database at SnapIndex follows as frameChunk frames up to a frameSnapEnd,
	// and entries continue from SnapIndex.
	frameSnapshot
	// frameHeartbeat: leader -> follower. Liveness plus current term and
	// membership, sent when no entries are flowing.
	frameHeartbeat
	// frameAck: follower -> leader. Cumulative applied index, used for WAL
	// compaction and catch-up monitoring; a bootstrap's chunks are acked
	// with none.
	frameAck
	// frameEntries: leader -> follower. A group-committed batch of
	// consecutive log records in one frame: the follower applies them in
	// order and acks once at the batch high-water mark, so N concurrent
	// writes cost ~1 replication round trip instead of N.
	frameEntries
	// frameClaim: candidate -> any. Claim leadership of Term (strictly above
	// the receiver's current term), carrying the candidate's log position
	// (AppliedTerm, Applied). Answered with frameStatus whose Granted says
	// whether the receiver adopted the claimed term. Granting is the vote
	// that makes promotion safe: the granter bumps its term immediately —
	// detaching from any current leader and refusing its further frames —
	// so a majority of grants guarantees the old leader can no longer
	// assemble a write quorum. Probe-gated promotion alone cannot do this:
	// it elects a new leader without deposing the old one, and an
	// asymmetric partition then yields two leaders acking writes in
	// parallel until one history is rolled back.
	frameClaim
	// frameChunk: leader -> follower. Whole checkpoint records of a snapshot.
	frameChunk
	// frameSnapEnd: leader -> follower. The snapshot's last chunk was sent.
	frameSnapEnd
)

// replMagic and replVersion are the two-byte preamble Node.dial opens every
// replication connection with; handleConn closes (counts, logs) one that
// opens differently, so two builds that would read each other's frames or
// records or checkpoints differently never exchange one. Bump replVersion
// whenever the frame codec, what a shipped record means to the engine
// replaying it, or the checkpoint bytes a snapshot carries change:
// 2 is "a statement may carry several argument rows" — a version-1 build
// would replay the first row of a set-based write and silently drop the rest;
// 3 is "a join asks for a snapshot with ForceSnapshot, not with From 0" — a
// version-2 leader would resume a joiner that needs one, and a version-2
// joiner with nothing applied would be sent a snapshot it did not need;
// 4 is "frames are the hand-written codec below" — versions 1 to 3 spoke gob;
// 5 is "a snapshot frame's checkpoint bytes are minisql records" — a version-4
// build sends and expects a gob-encoded checkpoint;
// 6 is "a snapshot's checkpoint follows its hello as chunk frames" — a
// version-5 build sends and expects the whole checkpoint inside the hello.
const (
	replMagic   = 0xF6
	replVersion = 6
)

// frame is the one message of the replication protocol, which for
// frameEntries carries log records as the opaque bytes minisql produced
// (this package encodes no entry and decodes one only through minisql's
// record decoder). Field use depends on Type; the codec below carries the
// fields that are not zero.
type frame struct {
	Type frameType
	Term uint64

	// frameJoin / frameProbe / frameClaim
	Peer          Peer
	From          uint64 // joiner's applied index
	ForceSnapshot bool   // joiner's state failed to extend the leader's log

	// frameStatus / frameNotLeader / frameSnapshot / frameHeartbeat.
	// LeaderID names the leader explicitly so followers recover the full
	// leader Peer even when its advertised address does not match any
	// membership entry's ReplAddr.
	Role       Role
	LeaderID   string
	LeaderRepl string
	LeaderSvc  string
	Peers      []Peer

	// frameSnapshot: the log index of the snapshot its chunks hold
	SnapIndex uint64

	// frameEntries: consecutive minisql records back to back, ascending
	// index, and the index of the last one. frameChunk: checkpoint records.
	Records []byte
	Last    uint64

	// frameAck (cumulative applied index) and frameStatus (the responder's
	// applied index, feeding the election log gate)
	Applied uint64

	// frameEntries / frameHeartbeat: the leader's quorum commit watermark.
	// Followers gate their watch-hub publication on it, so subscribers on
	// any node only ever see transitions the cluster has durably committed
	// (an applied-but-unacked entry can still be rolled back). Zero in
	// frames from roles that do not ship it — a no-op for the receiver's
	// gate.
	Committed uint64

	// frameJoin / frameClaim / frameStatus: the term of the leadership that
	// produced the sender's newest applied entry. Two logs agree up to the
	// smaller applied index if and only if their applied terms lead back to
	// the same leader — the comparison behind both the claim's log gate and
	// the join resume gate.
	AppliedTerm uint64

	// frameStatus reply to frameClaim: the receiver adopted the claimed term.
	Granted bool
}

// The frame codec. After the preamble a connection carries frames, each
//
//	uvarint body length | body
//	body = type byte | uvarint field mask | the fields whose bit is set, in bit order
//
// A field's bit is set when the field is not its zero value, so a frame costs
// what it carries: an ack is a length, a type, a mask and its index; an
// entries frame is its records and about a dozen bytes more. Unsigned
// integers and Role are uvarints, Peer.Priority a zigzag varint, strings and
// byte slices a uvarint length and their bytes; a bool is its bit alone. A
// Peer is its own mask byte (fields in declaration order) and fields, Peers a
// count and that many Peers. The field bits run from fTerm up, the hot
// frames' fields first so their masks take one byte.
//
// Bounds: the codec package's rule, with maxFrameSize the body bound and a
// Peer's mask byte its smallest encoding; Peers grow as peers decode. An
// unknown type, a mask bit past fSnapIndex or bytes left over refuse the
// frame. A reader allocates only what changed since the frames it read
// before: Records aliases its buffer, Peers its own slice, both holding
// until the next read, and a string equal to the one last read in
// its place is that string. So entries frames, acks and a steady leader's
// heartbeats decode with no allocation.
const (
	fTerm = 1 << iota
	fRecords
	fLast
	fCommitted
	fApplied
	fRole
	fLeaderID
	fLeaderRepl
	fLeaderSvc
	fPeers
	fPeer
	fFrom
	fAppliedTerm
	fForceSnapshot
	fGranted
	fSnapIndex
)

// maxFrameSize bounds a frame body: entries and chunk frames close by
// codec.KeepBytes of records, so none holds more than that and one record
// (an 8-byte header and its payload), and other fields take well under
// 64 KiB.
const maxFrameSize = codec.KeepBytes + 8 + minisql.MaxRecordSize + 64<<10

// errBadFrame marks a frame body that does not decode.
var errBadFrame = errors.New("replica: malformed frame")

// bit is m when on, else 0.
func bit(m uint64, on bool) uint64 {
	if on {
		return m
	}
	return 0
}

// appendFrameBody appends f's body (type, mask, fields) to b.
func appendFrameBody(b []byte, f *frame) []byte {
	mask := bit(fTerm, f.Term != 0) | bit(fRecords, len(f.Records) > 0) | bit(fLast, f.Last != 0) |
		bit(fCommitted, f.Committed != 0) | bit(fApplied, f.Applied != 0) | bit(fRole, f.Role != 0) |
		bit(fLeaderID, f.LeaderID != "") | bit(fLeaderRepl, f.LeaderRepl != "") |
		bit(fLeaderSvc, f.LeaderSvc != "") | bit(fPeers, len(f.Peers) > 0) | bit(fPeer, f.Peer != Peer{}) |
		bit(fFrom, f.From != 0) | bit(fAppliedTerm, f.AppliedTerm != 0) |
		bit(fForceSnapshot, f.ForceSnapshot) | bit(fGranted, f.Granted) | bit(fSnapIndex, f.SnapIndex != 0)
	b = codec.AppendUvarint(append(b, byte(f.Type)), mask)
	if mask&fTerm != 0 {
		b = codec.AppendUvarint(b, f.Term)
	}
	if mask&fRecords != 0 {
		b = codec.AppendBytes(b, f.Records)
	}
	if mask&fLast != 0 {
		b = codec.AppendUvarint(b, f.Last)
	}
	if mask&fCommitted != 0 {
		b = codec.AppendUvarint(b, f.Committed)
	}
	if mask&fApplied != 0 {
		b = codec.AppendUvarint(b, f.Applied)
	}
	if mask&fRole != 0 {
		b = codec.AppendUvarint(b, uint64(f.Role))
	}
	if mask&fLeaderID != 0 {
		b = codec.AppendString(b, f.LeaderID)
	}
	if mask&fLeaderRepl != 0 {
		b = codec.AppendString(b, f.LeaderRepl)
	}
	if mask&fLeaderSvc != 0 {
		b = codec.AppendString(b, f.LeaderSvc)
	}
	if mask&fPeers != 0 {
		b = codec.AppendUvarint(b, uint64(len(f.Peers)))
		for i := range f.Peers {
			b = appendPeer(b, &f.Peers[i])
		}
	}
	if mask&fPeer != 0 {
		b = appendPeer(b, &f.Peer)
	}
	if mask&fFrom != 0 {
		b = codec.AppendUvarint(b, f.From)
	}
	if mask&fAppliedTerm != 0 {
		b = codec.AppendUvarint(b, f.AppliedTerm)
	}
	if mask&fSnapIndex != 0 {
		b = codec.AppendUvarint(b, f.SnapIndex)
	}
	return b
}

func appendPeer(b []byte, p *Peer) []byte {
	mask := bit(1, p.ID != "") | bit(2, p.Priority != 0) | bit(4, p.ReplAddr != "") | bit(8, p.SvcAddr != "")
	b = append(b, byte(mask))
	if p.ID != "" {
		b = codec.AppendString(b, p.ID)
	}
	if p.Priority != 0 {
		b = codec.AppendVarint(b, int64(p.Priority))
	}
	if p.ReplAddr != "" {
		b = codec.AppendString(b, p.ReplAddr)
	}
	if p.SvcAddr != "" {
		b = codec.AppendString(b, p.SvcAddr)
	}
	return b
}

// decodeFrame decodes body into f, overwriting all of it. Records aliases
// body. seen remembers the strings and Peers of the frames
// decoded before: a string equal to the one seen in its place is kept, not
// copied, and Peers reuses seen's slice, so the heartbeats a stream repeats
// decode without allocating.
func decodeFrame(f *frame, body []byte, seen *frame) error {
	*f = frame{}
	d := codec.NewReader(body, errBadFrame)
	if f.Type = frameType(d.Byte()); f.Type > frameSnapEnd {
		d.Fail()
	}
	mask := d.Uvarint()
	if mask >= fSnapIndex<<1 {
		d.Fail()
	}
	if mask&fTerm != 0 {
		f.Term = d.Uvarint()
	}
	if mask&fRecords != 0 {
		f.Records = d.Bytes()
	}
	if mask&fLast != 0 {
		f.Last = d.Uvarint()
	}
	if mask&fCommitted != 0 {
		f.Committed = d.Uvarint()
	}
	if mask&fApplied != 0 {
		f.Applied = d.Uvarint()
	}
	if mask&fRole != 0 {
		if r := d.Uvarint(); r <= uint64(RoleLeader) {
			f.Role = Role(r)
		} else {
			d.Fail()
		}
	}
	if mask&fLeaderID != 0 {
		f.LeaderID = readStr(&d, &seen.LeaderID)
	}
	if mask&fLeaderRepl != 0 {
		f.LeaderRepl = readStr(&d, &seen.LeaderRepl)
	}
	if mask&fLeaderSvc != 0 {
		f.LeaderSvc = readStr(&d, &seen.LeaderSvc)
	}
	if mask&fPeers != 0 {
		n := d.Count(1) // a Peer's mask byte
		for i := 0; i < n && d.Err() == nil; i++ {
			if i == len(seen.Peers) {
				seen.Peers = append(seen.Peers, Peer{})
			}
			readPeer(&d, &seen.Peers[i])
		}
		f.Peers = seen.Peers[:min(n, len(seen.Peers))]
	}
	if mask&fPeer != 0 {
		readPeer(&d, &seen.Peer)
		f.Peer = seen.Peer
	}
	if mask&fFrom != 0 {
		f.From = d.Uvarint()
	}
	if mask&fAppliedTerm != 0 {
		f.AppliedTerm = d.Uvarint()
	}
	f.ForceSnapshot = mask&fForceSnapshot != 0
	f.Granted = mask&fGranted != 0
	if mask&fSnapIndex != 0 {
		f.SnapIndex = d.Uvarint()
	}
	if d.Len() != 0 {
		d.Fail()
	}
	return d.Err()
}

// readStr decodes a string into *seen — a copy only when the bytes spell
// something else — and returns it.
func readStr(d *codec.Reader, seen *string) string {
	if b := d.Bytes(); string(b) != *seen {
		*seen = string(b)
	}
	return *seen
}

// readPeer decodes a Peer into *p, keeping its strings where they are
// unchanged.
func readPeer(d *codec.Reader, p *Peer) {
	var next Peer
	mask := d.Byte()
	if mask > 15 {
		d.Fail()
	}
	if mask&1 != 0 {
		next.ID = readStr(d, &p.ID)
	}
	if mask&2 != 0 {
		v := d.Varint()
		if next.Priority = int(v); int64(next.Priority) != v {
			d.Fail()
		}
	}
	if mask&4 != 0 {
		next.ReplAddr = readStr(d, &p.ReplAddr)
	}
	if mask&8 != 0 {
		next.SvcAddr = readStr(d, &p.SvcAddr)
	}
	if d.Err() == nil {
		*p = next
	}
}

// frameWriter writes frames to one connection, each with a single Write,
// encoded into a buffer it reuses, and counts each frame written in sent by
// its type (nil: uncounted).
type frameWriter struct {
	w    io.Writer
	buf  []byte
	sent *[len(frameTypeNames)]*obs.Counter
}

func (w *frameWriter) write(f *frame) error {
	err := codec.WriteFrame(w.w, &w.buf, appendFrameBody(codec.BeginFrame(w.buf), f))
	if err == nil && w.sent != nil {
		w.sent[f.Type].Inc()
	}
	return err
}

// frameReader reads frames from one connection into a body buffer it
// reuses.
type frameReader struct {
	r    *bufio.Reader
	buf  []byte
	seen frame // strings and Peers decoded so far (decodeFrame)
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// read decodes the next frame into f. Its Records hold until the next read.
func (fr *frameReader) read(f *frame) error {
	body, err := codec.ReadFrame(fr.r, &fr.buf, maxFrameSize, errBadFrame)
	if err != nil {
		return err
	}
	return decodeFrame(f, body, &fr.seen)
}
