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
// snapshots_installed,snapshots_file_streamed}_total, and
// osprey_replica_malformed_total (replication connections that did not open
// with this build's preamble 0xF6 <version> — mixed builds, or a stray
// client — closed unanswered and logged with the peer address).
type nodeMetrics struct {
	promotions   *obs.Counter
	demotions    *obs.Counter
	entriesApp   *obs.Counter
	snapsSent    *obs.Counter
	snapsFile    *obs.Counter
	snapsInstall *obs.Counter
	malformed    *obs.Counter
	quorumWait   *obs.Histogram
	batchEntries *obs.Histogram
	heartbeatRTT *obs.Histogram
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		promotions:   reg.Counter("osprey_replica_promotions_total"),
		demotions:    reg.Counter("osprey_replica_demotions_total"),
		entriesApp:   reg.Counter("osprey_replica_entries_applied_total"),
		snapsSent:    reg.Counter("osprey_replica_snapshots_sent_total"),
		snapsFile:    reg.Counter("osprey_replica_snapshots_file_streamed_total"),
		snapsInstall: reg.Counter("osprey_replica_snapshots_installed_total"),
		malformed:    reg.Counter("osprey_replica_malformed_total"),
		quorumWait:   reg.Histogram("osprey_replica_quorum_wait_seconds", obs.DurationBuckets),
		batchEntries: reg.Histogram("osprey_replica_batch_entries", obs.SizeBuckets),
		heartbeatRTT: reg.Histogram("osprey_replica_heartbeat_rtt_seconds", obs.DurationBuckets),
	}
}

// registerCollectors wires the scrape-time cluster gauges. Called once from
// New, after the node's maps exist.
func (n *Node) registerCollectors(reg *obs.Registry) {
	reg.CollectFunc(func(e *obs.Emitter) {
		n.mu.Lock()
		role := n.role
		term := n.term
		applied := n.applied
		w := n.wal
		leaderApplied := n.leaderApplied
		type fl struct {
			id  string
			lag uint64
		}
		var fols []fl
		var last uint64
		if w != nil {
			last = w.LastIndex()
			for id, f := range n.followers {
				lag := uint64(0)
				if last > f.acked {
					lag = last - f.acked
				}
				fols = append(fols, fl{id: id, lag: lag})
			}
		}
		n.mu.Unlock()

		e.Gauge("osprey_replica_role", float64(role))
		e.Gauge("osprey_replica_term", float64(term))
		e.Gauge("osprey_replica_applied_index", float64(applied))
		committed := applied
		if w != nil {
			committed = w.Committed()
		}
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

// Metrics returns the node's metrics registry (shared with its database).
func (n *Node) Metrics() *obs.Registry { return n.db.Metrics() }

// noteLeaderFrame records evidence of a live leader from one received stream
// frame: the contact time always, and the leader's applied index when the
// frame carries one. Entry frames advance the estimate to their last index —
// the leader had applied at least that much to ship it.
func (n *Node) noteLeaderFrame(f frame) {
	now := time.Now()
	n.mu.Lock()
	n.leaderContact = now
	est := n.leaderApplied
	switch f.Type {
	case frameHeartbeat:
		if f.Applied > est {
			est = f.Applied
		}
	case frameSnapshot:
		if f.SnapIndex > est {
			est = f.SnapIndex
		}
	case frameEntries:
		if f.Last > est {
			est = f.Last
		}
	}
	n.leaderApplied = est
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
	if n.role == RoleLeader {
		return true, fmt.Sprintf("leader (term %d, applied %d)", n.term, n.applied)
	}
	if n.leaderContact.IsZero() {
		return false, "follower: no leader contact yet"
	}
	if age := now.Sub(n.leaderContact); age > bound {
		return false, fmt.Sprintf("follower: last leader contact %v ago exceeds bound %v", age.Round(time.Millisecond), bound)
	}
	lag := uint64(0)
	if n.leaderApplied > n.applied {
		lag = n.leaderApplied - n.applied
		if prog := now.Sub(n.lastProgress); n.lastProgress.IsZero() || prog > bound {
			return false, fmt.Sprintf("follower: lag %d entries with no apply progress in %v", lag, bound)
		}
	}
	return true, fmt.Sprintf("follower (term %d, applied %d, lag %d)", n.term, n.applied, lag)
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
		ID: n.cfg.ID, Role: n.role, Term: n.term, Applied: n.applied,
		LeaderID: n.leader.ID, LeaderSvc: n.leader.SvcAddr,
		Peers:         n.peerListLocked(),
		LeaderApplied: n.leaderApplied,
	}
	w := n.wal
	if len(n.followers) > 0 {
		st.Followers = make(map[string]uint64, len(n.followers))
		for id, f := range n.followers {
			st.Followers[id] = f.acked
		}
	}
	n.mu.Unlock()
	st.Committed = st.Applied
	if w != nil {
		st.Committed = w.Committed()
	}
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
	rankPeers(st.Peers)
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
