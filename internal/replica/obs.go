package replica

import (
	"fmt"
	"io"
	"sort"
	"time"

	"osprey/internal/obs"
)

// nodeMetrics is the replication layer's observability surface, registered
// on the node's database registry so one scrape covers DB, engine, and
// cluster state. Counters and histograms are bumped on the hot paths
// (atomics only); the positional gauges — role, term, applied/committed
// index, replication lag — are computed at scrape time by a collector.
//
// Metrics: osprey_replica_role (1 = leader), osprey_replica_term,
// osprey_replica_applied_index, osprey_replica_committed_index,
// osprey_replica_lag (a follower's leader-applied − applied; 0 on a leader),
// osprey_replica_follower_lag{peer} (leader side), the
// osprey_replica_quorum_wait_seconds, osprey_replica_batch_entries and
// osprey_replica_heartbeat_rtt_seconds histograms,
// osprey_replica_{promotions,demotions,entries_applied,snapshots_sent,
// snapshots_installed}_total, osprey_replica_frames_sent_total{type} (every
// replication frame this node wrote, by frameTypeNames), and
// osprey_replica_malformed_total (replication connections that did not open
// with this build's preamble 0xF6 <version> — mixed builds, or a stray
// client — closed unanswered and logged with the peer address).
type nodeMetrics struct {
	promotions   *obs.Counter
	demotions    *obs.Counter
	entriesApp   *obs.Counter
	snapsSent    *obs.Counter
	snapsInstall *obs.Counter
	malformed    *obs.Counter
	quorumWait   *obs.Histogram
	batchEntries *obs.Histogram
	heartbeatRTT *obs.Histogram
	framesSent   [len(frameTypeNames)]*obs.Counter
}

// frameTypeNames labels osprey_replica_frames_sent_total by frame type.
var frameTypeNames = [...]string{
	frameJoin: "join", frameProbe: "probe", frameStatus: "status", frameNotLeader: "not_leader",
	frameSnapshot: "snapshot", frameHeartbeat: "heartbeat", frameAck: "ack", frameEntries: "entries",
	frameClaim: "claim", frameChunk: "chunk", frameSnapEnd: "snap_end",
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	m := &nodeMetrics{
		promotions:   reg.Counter("osprey_replica_promotions_total"),
		demotions:    reg.Counter("osprey_replica_demotions_total"),
		entriesApp:   reg.Counter("osprey_replica_entries_applied_total"),
		snapsSent:    reg.Counter("osprey_replica_snapshots_sent_total"),
		snapsInstall: reg.Counter("osprey_replica_snapshots_installed_total"),
		malformed:    reg.Counter("osprey_replica_malformed_total"),
		quorumWait:   reg.Histogram("osprey_replica_quorum_wait_seconds", obs.DurationBuckets),
		batchEntries: reg.Histogram("osprey_replica_batch_entries", obs.SizeBuckets),
		heartbeatRTT: reg.Histogram("osprey_replica_heartbeat_rtt_seconds", obs.DurationBuckets),
	}
	for t, name := range frameTypeNames {
		m.framesSent[t] = reg.Counter("osprey_replica_frames_sent_total", "type", name)
	}
	return m
}

// frameWriter returns a writer of frames onto conn that counts each one it
// sends in osprey_replica_frames_sent_total.
func (n *Node) frameWriter(conn io.Writer) frameWriter {
	return frameWriter{w: conn, sent: &n.met.framesSent}
}

// registerCollectors wires the scrape-time cluster gauges. Called once from
// New, after the node's maps exist.
func (n *Node) registerCollectors(reg *obs.Registry) {
	reg.CollectFunc(func(e *obs.Emitter) {
		n.mu.Lock()
		role := n.st.role
		term := n.st.term
		applied := n.st.applied
		committed := applied
		leaderApplied := n.leaderApplied
		type fl struct {
			id  string
			lag uint64
		}
		var fols []fl
		if role == RoleLeader {
			committed = n.committedLocked(term)
			last := n.log.LastIndex()
			for id, f := range n.followers {
				lag := uint64(0)
				if acked := f.acked.Load(); last > acked {
					lag = last - acked
				}
				fols = append(fols, fl{id: id, lag: lag})
			}
		}
		n.mu.Unlock()

		e.Gauge("osprey_replica_role", float64(role))
		e.Gauge("osprey_replica_term", float64(term))
		e.Gauge("osprey_replica_applied_index", float64(applied))
		e.Gauge("osprey_replica_committed_index", float64(committed))
		if role == RoleFollower {
			lag := uint64(0)
			if leaderApplied > applied {
				lag = leaderApplied - applied
			}
			e.Gauge("osprey_replica_lag", float64(lag))
		} else {
			e.Gauge("osprey_replica_lag", 0)
		}
		sort.Slice(fols, func(i, j int) bool { return fols[i].id < fols[j].id })
		for _, f := range fols {
			e.Gauge("osprey_replica_follower_lag", float64(f.lag), "peer", f.id)
		}
	})
}

// noteLeaderFrame records evidence of a live leader from one received stream
// frame: the contact time always, and the leader's applied index when the
// frame carries one. Entry frames advance the estimate to their last index —
// the leader had applied at least that much to ship it.
func (n *Node) noteLeaderFrame(f *frame) {
	now := time.Now()
	n.mu.Lock()
	n.leaderContact = now
	switch f.Type {
	case frameHeartbeat, frameSnapshot:
		n.leaderApplied = max(n.leaderApplied, f.Applied)
	case frameEntries:
		n.leaderApplied = max(n.leaderApplied, f.Last)
	}
	n.mu.Unlock()
}

// Ready reports whether this node would serve token-bounded reads rather
// than refuse them — the /readyz verdict. A leader is ready (its applied
// index IS the freshest commit). A follower is ready while it has heard from
// the leader within 4x ElectionTimeout and is either caught up or still
// making apply progress within that bound; a stalled or partitioned follower
// goes unready, so a load balancer stops routing session reads at it before
// clients start seeing ErrStale.
func (n *Node) Ready() (bool, string) {
	bound := 4 * n.cfg.ElectionTimeout
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false, "node closed"
	}
	if n.st.role == RoleLeader {
		return true, fmt.Sprintf("leader (term %d, applied %d)", n.st.term, n.st.applied)
	}
	if n.leaderContact.IsZero() {
		return false, "follower: no leader contact yet"
	}
	if age := now.Sub(n.leaderContact); age > bound {
		return false, fmt.Sprintf("follower: last leader contact %v ago exceeds bound %v", age.Round(time.Millisecond), bound)
	}
	lag := uint64(0)
	if n.leaderApplied > n.st.applied {
		lag = n.leaderApplied - n.st.applied
		if prog := now.Sub(n.lastProgress); n.lastProgress.IsZero() || prog > bound {
			return false, fmt.Sprintf("follower: lag %d entries with no apply progress in %v", lag, bound)
		}
	}
	return true, fmt.Sprintf("follower (term %d, applied %d, lag %d)", n.st.term, n.st.applied, lag)
}

// NodeStatus is a point-in-time snapshot of cluster-visible node state, for
// /statusz and operator tooling.
type NodeStatus struct {
	ID        string
	Role      Role
	Term      uint64
	Applied   uint64
	Committed uint64
	LeaderID  string
	LeaderSvc string
	Peers     []Peer
	// Followers maps connected follower IDs to their acknowledged index
	// (leader only).
	Followers map[string]uint64
	// LeaderApplied is the follower's estimate of the leader's applied index.
	LeaderApplied uint64
	// Durable reports whether the node runs with an on-disk store; the
	// remaining durability fields are meaningful only when it is set.
	Durable         bool
	Fsync           bool
	WALSegments     int
	WALDiskBytes    int64
	WALFirst        uint64
	WALLast         uint64
	WALSynced       uint64
	CheckpointIndex uint64
	CheckpointAge   time.Duration
	SinceCheckpoint uint64
	CheckpointErr   string
}

// Status snapshots the node's replication state.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	st := NodeStatus{
		ID: n.cfg.ID, Role: n.st.role, Term: n.st.term, Applied: n.st.applied,
		LeaderID: n.st.leader.ID, LeaderSvc: n.st.leader.SvcAddr,
		Peers:         append([]Peer(nil), n.st.peers...),
		LeaderApplied: n.leaderApplied,
	}
	if len(n.followers) > 0 {
		st.Followers = make(map[string]uint64, len(n.followers))
		for id, f := range n.followers {
			st.Followers[id] = f.acked.Load()
		}
	}
	n.mu.Unlock()
	st.Committed = n.Committed()
	if n.store != nil {
		ss := n.store.Stats()
		st.Durable = true
		st.Fsync = n.store.Fsync()
		st.WALSegments = ss.Log.Segments
		st.WALDiskBytes = ss.Log.DiskBytes
		st.WALFirst = ss.Log.First
		st.WALLast = ss.Log.Last
		st.WALSynced = ss.Log.Synced
		st.CheckpointIndex = ss.CheckpointIndex
		st.CheckpointAge = ss.CheckpointAge
		st.SinceCheckpoint = ss.SinceCheckpoint
		if ss.CheckpointErr != nil {
			st.CheckpointErr = ss.CheckpointErr.Error()
		}
	}
	return st
}

// WriteStatus renders the status snapshot as human-readable text (/statusz).
func (st NodeStatus) WriteStatus(w io.Writer) {
	role := "follower"
	if st.Role == RoleLeader {
		role = "leader"
	}
	fmt.Fprintf(w, "node: %s\nrole: %s\nterm: %d\napplied: %d\ncommitted: %d\n",
		st.ID, role, st.Term, st.Applied, st.Committed)
	fmt.Fprintf(w, "leader: %s (svc %s)\n", st.LeaderID, st.LeaderSvc)
	if st.Role == RoleFollower {
		fmt.Fprintf(w, "leader_applied: %d\n", st.LeaderApplied)
	}
	if st.Durable {
		fmt.Fprintf(w, "durable: true (fsync=%v)\n", st.Fsync)
		fmt.Fprintf(w, "wal: segments=%d bytes=%d range=%d..%d synced=%d\n",
			st.WALSegments, st.WALDiskBytes, st.WALFirst, st.WALLast, st.WALSynced)
		fmt.Fprintf(w, "checkpoint: index=%d age=%v pending_entries=%d\n",
			st.CheckpointIndex, st.CheckpointAge.Round(time.Second), st.SinceCheckpoint)
		if st.CheckpointErr != "" {
			fmt.Fprintf(w, "checkpoint_error: %s\n", st.CheckpointErr)
		}
	}
	fmt.Fprintf(w, "peers:\n")
	for _, p := range st.Peers {
		fmt.Fprintf(w, "  - %s prio=%d repl=%s svc=%s", p.ID, p.Priority, p.ReplAddr, p.SvcAddr)
		if st.Followers != nil {
			if acked, ok := st.Followers[p.ID]; ok {
				fmt.Fprintf(w, " acked=%d", acked)
			}
		}
		fmt.Fprintln(w)
	}
}
