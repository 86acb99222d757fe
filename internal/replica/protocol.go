package replica

import "sort"

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
	// applied index. The leader replies with frameSnapshot, or — when the
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
	// frameSnapshot: leader -> follower. Full database snapshot at SnapIndex;
	// subsequent entries continue from there.
	frameSnapshot
	// frameHeartbeat: leader -> follower. Liveness plus current term and
	// membership, sent when no entries are flowing.
	frameHeartbeat
	// frameAck: follower -> leader. Cumulative applied index, used for WAL
	// compaction and catch-up monitoring.
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
)

// replMagic and replVersion are the two-byte preamble Node.dial opens every
// replication connection with; handleConn closes (counts, logs) one that
// opens differently. gob skips fields it does not know, so without it a
// build with another frame layout would attach, apply nothing and ack its
// old index forever while quorum writes time out. Bump replVersion whenever
// frame, or what a shipped record means to the engine replaying it, changes:
// 2 is "a statement may carry several argument rows" — a version-1 build
// would replay the first row of a set-based write and silently drop the rest;
// 3 is "a join asks for a snapshot with ForceSnapshot, not with From 0" — a
// version-2 leader would resume a joiner that needs one, and a version-2
// joiner with nothing applied would be sent a snapshot it did not need.
const (
	replMagic   = 0xF6
	replVersion = 3
)

// frame is the one message of the replication protocol: a gob-encoded
// envelope, which for frameEntries carries log records as the opaque bytes
// minisql produced (this package encodes no entry and decodes one only
// through minisql.DecodeRecord). Field use depends on Type.
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

	// frameSnapshot
	Snapshot  []byte
	SnapIndex uint64

	// frameEntries: consecutive minisql records back to back, ascending
	// index, and the index of the last one
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
