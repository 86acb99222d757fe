// Package replica turns the single-node EMEWS service into a leader/follower
// cluster, extending the paper's snapshot/restart fault tolerance (§II-B1c)
// to live node loss.
//
// The design follows the classic statement-shipping shape: the leader's SQL
// engine records every committed mutating statement in an in-memory
// write-ahead log (minisql.WAL); followers join over a small TCP protocol,
// bootstrap from an engine snapshot taken at a log index, then stream and
// deterministically replay entries. Heartbeats carry the term and the full
// membership list. When the leader dies the survivors hold a claim-based
// election (electOrPromote, promoteGated): every node ranks the remaining
// membership identically (priority desc, ID asc) and waits its rank's share
// of the election timeout for a better-ranked peer to win; a candidate first
// probes its view — it stands only when it reaches a majority and nobody
// reachable holds a newer (appliedTerm, applied) log — then bumps its term
// and sends a claim to every peer. A peer grants a claim above its own term
// from a log at least as new as its own, and granting adopts the term, drops
// the stream to the old leader (a granting leader steps down) and takes the
// claimant into its view; the candidate promotes on grants from a majority,
// its own included. The rest re-join the new leader — resuming incrementally
// when their log tail is that leadership's own, otherwise re-bootstrapping
// from its snapshot, which makes the new leader's state authoritative and
// heals any divergence.
//
// Replication is asynchronous by default: a write acknowledged by the leader
// may be lost if the leader dies before shipping it. Setting
// Config.WriteQuorum > 0 switches writes to synchronous replication — the
// leader's WAL tracks per-follower acknowledgements into a quorum commit
// watermark, and the service layer holds each write's reply until the
// watermark covers it, so an acknowledged write survives the immediate death
// of the leader. Completed task results that have replicated survive any
// single node loss either way, and the failover-aware service client
// (service.DialCluster) recovers them from the new leader.
//
// Leadership is leased: a leader that cannot hear acks or probes from a
// majority of its membership within the lease window steps down to follower
// (demote) and answers writes as unavailable, so a partitioned-away leader
// stops accepting doomed writes instead of serving as a zombie. Because a
// majority of grants is a majority that has left the old term, any write
// quorum the deposed leader could still assemble would need a granter, and
// granters reject its frames: quorum-acknowledged writes survive failover and
// a minority side cannot elect.
//
// The majority rule is the standard quorum trade: automatic failover (and a
// leader surviving follower loss) requires a cluster of at least 3 nodes. A
// 2-node cluster that loses either member becomes read-only until the peer
// returns (or an operator forces promotion, ForcePromote).
package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
)

// DialFunc dials a replication peer; the signature matches net.DialTimeout.
// Config.Dialer lets tests route peer traffic through a fault-injecting
// transport (internal/chaos); nil means the real network.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// ListenFunc binds the replication listener; the signature matches
// net.Listen. Config.Listen is DialFunc's accept-side twin.
type ListenFunc func(network, addr string) (net.Listener, error)

// Config parameterizes one cluster node.
type Config struct {
	// ID uniquely names the node in the cluster. Defaults to the
	// replication listen address.
	ID string
	// Priority is the promotion rank; the live follower with the highest
	// priority is promoted when the leader dies (ties: lowest ID wins).
	Priority int
	// Addr is the replication listen address (e.g. "127.0.0.1:0").
	Addr string
	// Advertise is the replication address other nodes should dial to reach
	// this one. It defaults to the bound listen address, which is correct on
	// a single host; set it when binding a wildcard address (":7700") or
	// behind NAT, where the raw listener address is not dialable remotely.
	Advertise string
	// ServiceAddr is the advertised EMEWS service address of this node;
	// service.ServeNode fills it in automatically.
	ServiceAddr string
	// Join is the replication address of the leader to follow. Empty means
	// this node boots as the cluster's initial leader.
	Join string
	// Heartbeat is the leader's keepalive interval (default 25ms).
	Heartbeat time.Duration
	// ElectionTimeout is how long a follower waits without hearing from the
	// leader before starting failover, and the per-rank promotion backoff
	// slot (default 8x Heartbeat).
	ElectionTimeout time.Duration
	// WriteQuorum is the number of followers that must acknowledge a write
	// before the service layer confirms it to the client. 0 (the default)
	// keeps replication fully asynchronous. With N > 0 an acknowledged write
	// survives the immediate death of the leader, at the cost of one
	// replication round trip of latency per write.
	WriteQuorum int
	// LeaseTimeout is the leadership lease window: a leader that hears no
	// ack or probe from a majority of its membership for this long demotes
	// itself to follower and stops accepting writes (default
	// 2x ElectionTimeout).
	LeaseTimeout time.Duration
	// DataDir enables durable storage: committed entries are appended to a
	// segmented on-disk WAL under this directory, periodic checkpoints
	// bound it, and a restart recovers the node's state from disk — no live
	// peer required. Empty (the default) keeps the node fully in-memory.
	DataDir string
	// Fsync, with DataDir set, makes the node acknowledge writes (and ack
	// replicated entries) only after fsync, surviving machine/power loss.
	// Off, durability covers process death (kill -9) but not machine loss.
	Fsync bool
	// CheckpointEvery is the automatic checkpoint interval in log entries
	// (0: default 10000; negative disables). Only meaningful with DataDir.
	CheckpointEvery int
	// GroupCommitDelay is the group-commit flush deadline. When two or more
	// writers are blocked in quorum waits (WAL.QuorumWaiters > 1 — i.e.
	// synchronous-replication mode under concurrent load), the leader holds
	// the next flush this long so commits landing close together coalesce
	// into one batched frame — and one follower ack covering them all. A
	// single serial writer never pays the delay, so it bounds the *added*
	// write latency under concurrency rather than taxing every write. In
	// asynchronous mode (WriteQuorum 0) no one blocks, the delay never
	// engages, and batching still happens naturally whenever entries
	// accumulate while a frame is in flight. 0 selects the default (200µs);
	// negative disables coalescing.
	GroupCommitDelay time.Duration
	// Logf, when set, receives replication lifecycle messages.
	Logf func(format string, args ...any)
	// Dialer overrides how this node dials peers (joins, probes). Nil uses
	// net.DialTimeout. Exists for fault injection; production leaves it nil,
	// and the only cost of the seam is one nil check per (re)connect.
	Dialer DialFunc
	// Listen overrides how the replication listener binds. Nil uses
	// net.Listen.
	Listen ListenFunc
	// FS overrides the filesystem under DataDir (nil: the real disk), the
	// disk half of fault injection.
	FS minisql.FS
}

// Node is one member of a replicated EMEWS service cluster. It owns a
// core.DB, ships (or applies) the statement WAL, and runs the failover
// protocol. Create with New, wire the service with service.ServeNode (or
// SetServiceAddr + Start), and shut down with Close.
type Node struct {
	cfg   Config
	db    *core.DB
	eng   *minisql.Engine
	store *minisql.Store // durable log + checkpoints (nil: in-memory node)
	ln    net.Listener

	met *nodeMetrics // replication metrics (obs.go), on the DB's registry

	mu      sync.Mutex
	role    Role
	term    uint64
	applied uint64 // last applied (follower) / committed (leader) log index
	// appliedTerm is the leadership term that produced the newest applied
	// entry — the Raft last-log-term half of every log comparison. Two nodes
	// whose applied terms match hold prefixes of the same leader's log, so
	// (appliedTerm, applied) ordered lexicographically decides both the
	// election log gate and whether a join may resume incrementally.
	appliedTerm uint64
	wal         *minisql.WAL
	peers       map[string]Peer
	leader      Peer
	followers   map[string]*followerConn
	contact     map[string]time.Time // last ack/join/probe heard from each peer
	leaseRef    time.Time            // lease grace: no demotion before this
	stream      net.Conn             // follower's live connection to the leader
	started     bool
	closed      bool
	// standDownUntil suppresses this node's own candidacy after StepDown:
	// a node that vacated leadership deliberately must not stand in the
	// election it just triggered, or it would often win leadership straight
	// back (freshest log, usually top priority) and defeat the handoff.
	standDownUntil time.Time

	// Leader-health evidence for readiness (obs.go): when the leader was
	// last heard from on the stream, its last reported applied index, and
	// when this node's own applied index last advanced.
	leaderContact time.Time
	leaderApplied uint64
	lastProgress  time.Time

	peersCh   chan struct{} // closed and replaced when membership changes
	appliedCh chan struct{} // closed and replaced when the applied index advances
	commitCh  chan struct{} // closed and replaced when the quorum watermark advances
	closeCh   chan struct{}

	committedSeen uint64 // newest quorum watermark fanned out via commitCh
	wg            sync.WaitGroup

	// attached latches once this node's state is first tied to the cluster's
	// log in this process: it boots or is promoted as leader, or — as a
	// follower — its first join has been answered and processed (bootstrap
	// snapshot installed, or resume accepted). See Attached.
	attached atomic.Bool

	// everJoined records that this node recovered a multi-member membership
	// view from disk: it has provably been part of the cluster, so it may
	// take part in elections immediately after a restart instead of knocking
	// on its join address forever waiting for a leader that may never exist
	// (a fully-restarted cluster has no leader to find, only one to elect).
	everJoined bool
}

// viewMeta is the durably persisted membership view: the peers list and
// leader identity this node last adopted. A restarted node recovers it so
// its elections run against the real majority denominator instead of a
// one-node world view.
type viewMeta struct {
	Leader Peer
	Peers  []Peer
}

// New creates a node with a fresh EMEWS database and a bound replication
// listener. The node is passive until Start.
func New(cfg Config) (*Node, error) {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 25 * time.Millisecond
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 8 * cfg.Heartbeat
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * cfg.ElectionTimeout
	}
	if cfg.GroupCommitDelay == 0 {
		cfg.GroupCommitDelay = 200 * time.Microsecond
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	var db *core.DB
	var err error
	if cfg.DataDir != "" {
		// Durable node: recover engine state from the data directory
		// (checkpoint + WAL tail) before any peer contact.
		db, err = core.Open(cfg.DataDir, core.OpenOptions{
			Fsync:           cfg.Fsync,
			CheckpointEvery: cfg.CheckpointEvery,
			Logf:            cfg.Logf,
			FS:              cfg.FS,
		})
	} else {
		db, err = core.NewDB()
	}
	if err != nil {
		return nil, err
	}
	listen := cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", cfg.Addr)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("replica: listen %s: %w", cfg.Addr, err)
	}
	if cfg.ID == "" {
		cfg.ID = ln.Addr().String()
	}
	n := &Node{
		cfg:       cfg,
		db:        db,
		eng:       db.Engine(),
		store:     db.Store(),
		ln:        ln,
		peers:     make(map[string]Peer),
		followers: make(map[string]*followerConn),
		contact:   make(map[string]time.Time),
		peersCh:   make(chan struct{}),
		appliedCh: make(chan struct{}),
		commitCh:  make(chan struct{}),
		closeCh:   make(chan struct{}),
	}
	n.met = newNodeMetrics(db.Metrics())
	n.registerCollectors(db.Metrics())
	self := n.selfPeerLocked()
	n.peers[self.ID] = self
	if n.store != nil {
		// Resume the cluster position recovered from disk: the applied index
		// is the engine's replayed high-water mark, the term the one
		// persisted before the restart. A restarted follower re-joins from
		// that position (no re-bootstrap); a restarted leader reopens its
		// log at it.
		n.applied = n.eng.LastLogged()
		n.term = n.store.Term()
		n.appliedTerm = n.store.AppliedTerm()
		if cfg.Join != "" {
			// Recover the last adopted membership view: the restarted
			// follower knows who the cluster was and may elect (majority- and
			// log-gated as always) if it finds no leader to rejoin. A
			// single-member view is not recovered — electing from it would be
			// claiming leadership of a one-node world. The bootstrap-leader
			// path (Join == "") keeps its fresh {self} view: it already leads,
			// and members re-register as they return.
			var vm viewMeta
			if v := n.store.View(); len(v) > 0 && json.Unmarshal(v, &vm) == nil && len(vm.Peers) > 1 {
				for _, p := range vm.Peers {
					n.peers[p.ID] = p
				}
				n.peers[self.ID] = self // own addresses win over the recorded ones
				if vm.Leader.ID != cfg.ID {
					// A recovered leader identity naming this node is its own
					// pre-crash leadership — stale the moment it restarts as
					// a follower.
					n.leader = vm.Leader
				}
				n.everJoined = true
			}
		}
	}
	if cfg.Join == "" {
		n.role = RoleLeader
		// Always start a NEW term, even when one was recovered from disk.
		// Crash recovery can roll this leader's log back past entries a
		// follower already applied (a non-fsync tail lost with the OS
		// buffers, or a frame streamed from the memory WAL before its fsync
		// completed). Resuming the old term would let such a follower pass
		// the same-term resume check with nothing to stream and then watch
		// new writes reuse its indexes with different content — silent
		// divergence. The bump forces returning followers through the
		// snapshot path, which heals any divergence wholesale.
		n.term++
		n.wal = minisql.NewWAL(n.applied)
		n.wal.SetQuorum(cfg.WriteQuorum)
		n.leader = self
		n.persistTerm(n.term)
		n.attached.Store(true)
	} else {
		n.role = RoleFollower
	}
	if cfg.WriteQuorum > 0 {
		// Synchronous replication: gate watch publication on the quorum
		// commit watermark, so subscribers on this node only ever see
		// transitions as durable as an acknowledged write (an applied but
		// unacked entry can still roll back — see core's watchGate). In
		// asynchronous mode acknowledged writes carry no such promise, so
		// the watch does not pretend to either.
		db.GateWatch()
	}
	n.eng.SetCommitHook(n.onCommit)
	return n, nil
}

// persistTerm records a term change in the durable store (no-op in-memory
// or when unchanged), so a restart resumes the cluster's term instead of
// restarting history at 1.
func (n *Node) persistTerm(t uint64) {
	if n.store == nil {
		return
	}
	if err := n.store.SetTerm(t); err != nil {
		n.logf("persisting term %d: %v", t, err)
	}
}

// noteAppliedTerm advances the applied-term watermark (the term whose leader
// produced the newest applied entry) and persists the change. It moves once
// per adopted leadership, so the apply fast path only ever pays the no-op
// comparison.
func (n *Node) noteAppliedTerm(t uint64) {
	n.mu.Lock()
	changed := t != n.appliedTerm
	if changed {
		n.appliedTerm = t
	}
	n.mu.Unlock()
	if changed && n.store != nil {
		if err := n.store.SetAppliedTerm(t); err != nil {
			n.logf("persisting applied term %d: %v", t, err)
		}
	}
}

// persistViewLocked records the current membership view in the durable store
// (no-op in-memory or when unchanged), so a restart recovers the cluster it
// was part of. Caller holds n.mu.
func (n *Node) persistViewLocked() {
	if n.store == nil {
		return
	}
	peers := n.peerListLocked()
	rankPeers(peers) // stable order, so unchanged views compare equal
	data, err := json.Marshal(viewMeta{Leader: n.leader, Peers: peers})
	if err != nil {
		return
	}
	if err := n.store.SetView(data); err != nil {
		n.logf("persisting membership view: %v", err)
	}
}

func (n *Node) persistView() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.persistViewLocked()
}

// Start launches the replication loops. Idempotent.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || n.closed {
		n.mu.Unlock()
		return
	}
	n.started = true
	role := n.role
	n.mu.Unlock()

	n.wg.Add(1)
	go n.acceptLoop()
	if role == RoleFollower {
		n.wg.Add(1)
		go n.runFollower()
	} else {
		n.wg.Add(1)
		go n.leaderHousekeeping()
	}
}

// Close stops all replication activity and shuts the node's database down.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.closeCh)
	conns := make([]net.Conn, 0, len(n.followers)+1)
	for _, f := range n.followers {
		conns = append(conns, f.conn)
	}
	if n.stream != nil {
		conns = append(conns, n.stream)
	}
	n.mu.Unlock()
	n.eng.SetCommitHook(nil)
	n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	n.db.Close()
}

// DB returns the node's task database, for local serving.
func (n *Node) DB() *core.DB { return n.db }

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.cfg.ID }

// Addr returns the replication address other nodes should dial (the --join
// target): the advertised address when Config.Advertise is set, otherwise the
// bound listen address. The raw listener address is not dialable remotely
// behind NAT or a wildcard bind, which is exactly what Advertise exists for.
func (n *Node) Addr() string {
	if n.cfg.Advertise != "" {
		return n.cfg.Advertise
	}
	return n.ln.Addr().String()
}

// SetServiceAddr records the EMEWS service address this node advertises to
// peers and clients. Call before Start.
func (n *Node) SetServiceAddr(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.ServiceAddr = addr
	self := n.selfPeerLocked()
	n.peers[self.ID] = self
	if n.leader.ID == self.ID {
		n.leader = self
	}
}

// ServiceAddr returns the EMEWS service address this node advertises
// ("" when not yet set).
func (n *Node) ServiceAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.ServiceAddr
}

// Role returns the node's current cluster role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Attached reports whether this node's state has been tied to the cluster's
// log at least once in this process: always on a node that boots or is
// promoted as leader, and on a follower from the moment its first join has
// been answered and processed — the bootstrap snapshot installed, or the
// resume from its own recovered position accepted. Before that a follower's
// database (and watch hub) is a placeholder the first snapshot install will
// replace wholesale, so the service refuses watch subscriptions on it. The
// latch never clears: a follower that loses its leader mid-election keeps
// serving the state it has.
func (n *Node) Attached() bool { return n.attached.Load() }

// IsLeader reports whether this node currently leads the cluster.
func (n *Node) IsLeader() bool { return n.Role() == RoleLeader }

// Term returns the current leadership term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Applied returns the index of the last log entry applied to (or committed
// by) this node's database.
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

// LeaderServiceAddr returns the EMEWS service address of the current leader
// ("" while no leader is known).
func (n *Node) LeaderServiceAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader.SvcAddr
}

// LeaderID returns the node ID of the current leader ("" when unknown).
func (n *Node) LeaderID() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader.ID
}

// Peers returns the node's view of cluster membership in promotion order.
func (n *Node) Peers() []Peer {
	n.mu.Lock()
	out := n.peerListLocked()
	n.mu.Unlock()
	rankPeers(out)
	return out
}

func (n *Node) selfPeerLocked() Peer {
	repl := n.cfg.Advertise
	if repl == "" {
		repl = n.ln.Addr().String()
	}
	return Peer{ID: n.cfg.ID, Priority: n.cfg.Priority, ReplAddr: repl, SvcAddr: n.cfg.ServiceAddr}
}

func (n *Node) peerListLocked() []Peer {
	out := make([]Peer, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, p)
	}
	return out
}

// notifyPeersChangedLocked wakes every follower stream so a membership
// change reaches the whole cluster within one send, not one heartbeat tick:
// followers must agree on membership for promotion to stay deterministic.
func (n *Node) notifyPeersChangedLocked() {
	close(n.peersCh)
	n.peersCh = make(chan struct{})
}

// noteCommitted fans a quorum-watermark advance out to the watch gate and
// the per-follower senders (which propagate it in their next frame). Called
// by the leader's ack readers; deduplicated so only genuine advances wake
// anyone.
func (n *Node) noteCommitted(c uint64) {
	n.mu.Lock()
	if c <= n.committedSeen {
		n.mu.Unlock()
		return
	}
	n.committedSeen = c
	close(n.commitCh)
	n.commitCh = make(chan struct{})
	n.mu.Unlock()
	n.db.AdvanceWatch(c)
}

// commitWatch returns a channel closed at the next quorum-watermark advance.
func (n *Node) commitWatch() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitCh
}

// peersWatch returns a channel closed at the next membership change.
func (n *Node) peersWatch() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peersCh
}

func (n *Node) isClosed() bool {
	select {
	case <-n.closeCh:
		return true
	default:
		return false
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("replica %s: "+format, append([]any{n.cfg.ID}, args...)...)
	}
}

// onCommit is the engine commit hook: on the leader it appends the committed
// statements to the WAL, which wakes the per-follower senders, and returns
// the assigned index — the commit token the engine hands back to the caller
// through TxLogged. It runs under the engine lock, so it only
// touches the WAL, the store's buffered log append, and node bookkeeping.
// Off the leader it refuses: a write that reaches this node's database anyway
// (the node was demoted between the service's leadership check and the
// write; a poll parked on an ex-leader woken by a replayed transition) would
// be applied here, logged nowhere, published at token 0 and acknowledged.
func (n *Node) onCommit(stmts []minisql.Stmt) (uint64, error) {
	n.mu.Lock()
	w := n.wal
	isLeader := n.role == RoleLeader
	term := n.term
	n.mu.Unlock()
	if !isLeader || w == nil {
		return 0, ErrNotLeader
	}
	// The entry being appended belongs to this leadership: the applied-term
	// watermark moves with the first write of each term (no-op after).
	n.noteAppliedTerm(term)
	rec := w.Append(stmts)
	if n.store != nil {
		// The durable twin of the in-memory append, same bytes. On failure
		// the commit stands in memory and replication proceeds, but the
		// client's durability wait (core waitDurable) surfaces the store error.
		if err := n.store.AppendRecords(rec); err != nil {
			n.logf("disk WAL append %d: %v", rec.Index, err)
		}
	}
	n.setApplied(rec.Index)
	return rec.Index, nil
}

// setApplied advances the applied index (never regresses) and wakes
// WaitApplied callers.
func (n *Node) setApplied(idx uint64) {
	n.mu.Lock()
	if idx > n.applied {
		n.applied = idx
		n.lastProgress = time.Now()
		close(n.appliedCh)
		n.appliedCh = make(chan struct{})
	}
	n.mu.Unlock()
}

// Lease and quorum sentinel errors. Both are transient cluster conditions:
// service callers surface them as ErrUnavailable so failover clients
// re-resolve the leader and retry.
var (
	// ErrNotLeader is returned by the quorum waits, and refuses the commit of
	// a local write, on a node that is not (or no longer) the cluster leader.
	ErrNotLeader = fmt.Errorf("replica: not the leader")
	// ErrDemoted fails quorum waits that were pending when the leader
	// stepped down after losing its majority lease.
	ErrDemoted = fmt.Errorf("replica: leader demoted (lost majority lease)")
	// ErrStale is returned by WaitApplied when the replica cannot reach the
	// requested log index within the staleness bound: the caller's freshness
	// requirement (commit token) is ahead of this replica.
	ErrStale = fmt.Errorf("replica: replica behind requested commit token")
	// ErrClosed is returned by waits on a closed node.
	ErrClosed = fmt.Errorf("replica: node closed")
)

// touchPeer records that peer id was heard from (ack, join, or probe) for the
// majority lease and membership decay.
func (n *Node) touchPeer(id string) {
	if id == "" {
		return
	}
	n.mu.Lock()
	n.contact[id] = time.Now()
	n.mu.Unlock()
}

// WriteQuorum returns the configured synchronous-replication quorum
// (0 = asynchronous).
func (n *Node) WriteQuorum() int { return n.cfg.WriteQuorum }

// Committed returns the quorum commit watermark on the leader (equal to
// Applied in asynchronous mode) and the applied index elsewhere.
func (n *Node) Committed() uint64 {
	n.mu.Lock()
	w, applied := n.wal, n.applied
	n.mu.Unlock()
	if w == nil {
		return applied
	}
	return w.Committed()
}

// WaitQuorumIndex blocks until the log entry at exactly idx is replicated to
// WriteQuorum followers: the per-request quorum wait. Because idx is the
// calling write's own commit token, a concurrent later write that misses
// quorum can no longer fail this one. It returns nil immediately in
// asynchronous mode or for idx 0 (the write produced no log entry),
// ErrNotLeader when the node does not lead, ErrDemoted when the leader steps
// down mid-wait, and a quorum-timeout error when the cluster cannot
// replicate idx within the bounded window. The service layer calls it
// between executing a write and confirming it to the client.
func (n *Node) WaitQuorumIndex(idx uint64) error {
	if n.cfg.WriteQuorum <= 0 || idx == 0 {
		return nil
	}
	n.mu.Lock()
	if n.role != RoleLeader || n.wal == nil {
		n.mu.Unlock()
		return ErrNotLeader
	}
	w := n.wal
	n.mu.Unlock()
	t0 := time.Now()
	err := w.WaitCommitted(idx, 2*n.cfg.LeaseTimeout)
	n.met.quorumWait.ObserveSince(t0)
	return err
}

// WaitApplied blocks until this node's applied index reaches idx, so a read
// served from the local replica is guaranteed to reflect every write up to
// the caller's commit token. It returns ErrStale when the replica cannot
// catch up within timeout (timeout 0 checks once without blocking) — the
// caller should fall back to a fresher replica or the leader. On the leader
// the applied index is the newest committed index, so a token the cluster
// has issued never blocks there.
func (n *Node) WaitApplied(idx uint64, timeout time.Duration) error {
	var timer *time.Timer
	for {
		n.mu.Lock()
		if n.applied >= idx {
			n.mu.Unlock()
			return nil
		}
		if n.closed {
			n.mu.Unlock()
			return ErrClosed
		}
		ch := n.appliedCh
		n.mu.Unlock()
		if timeout <= 0 {
			return fmt.Errorf("%w: have %d, need %d", ErrStale, n.Applied(), idx)
		}
		if timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-n.closeCh:
			return ErrClosed
		case <-timer.C:
			return fmt.Errorf("%w: have %d, need %d after %v", ErrStale, n.Applied(), idx, timeout)
		}
	}
}

// ForcePromote is the operator escape hatch for clusters that cannot form an
// electing majority — the canonical case is a 2-node cluster after one node
// dies, where the survivor is 1 of 2 and the majority gate (correctly)
// refuses automatic failover. It promotes this node to leader immediately,
// overriding the gate. The operator asserts what the protocol cannot know:
// that the missing peers are really dead, not partitioned away. Forcing
// promotion on BOTH sides of a live partition creates split brain, exactly
// as it would in any quorum system. Idempotent on a current leader.
func (n *Node) ForcePromote() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.role == RoleLeader {
		n.mu.Unlock()
		return nil
	}
	stream := n.stream
	n.mu.Unlock()
	n.logf("forced promotion: operator override of the majority election gate")
	n.promote(0)
	// Sever any live stream to an old leader; the follower loop observes the
	// role change and exits instead of re-electing.
	if stream != nil {
		stream.Close()
	}
	return nil
}

// promote makes this follower the new leader: adopt the claimed term (0
// means bump the current one — the operator ForcePromote path, which skips
// the claim round), drop the dead leader from membership, and open a fresh
// WAL continuing at the applied index so joiners resume the cluster's
// numbering. A claimTerm the node has already moved past aborts the
// promotion: this node granted a higher claim between its own claim round
// and now, and leading at the stale term would undo that vote.
func (n *Node) promote(claimTerm uint64) {
	n.mu.Lock()
	if n.closed || n.role == RoleLeader {
		n.mu.Unlock()
		return
	}
	if claimTerm == 0 {
		claimTerm = n.term + 1
	}
	if claimTerm < n.term {
		n.mu.Unlock()
		n.logf("promotion at term %d aborted: already granted term %d", claimTerm, n.term)
		return
	}
	n.role = RoleLeader
	n.term = claimTerm
	if n.leader.ID != "" && n.leader.ID != n.cfg.ID {
		delete(n.peers, n.leader.ID)
	}
	n.leader = n.selfPeerLocked()
	n.wal = minisql.NewWAL(n.applied)
	n.wal.SetQuorum(n.cfg.WriteQuorum)
	n.followers = make(map[string]*followerConn)
	// Lease grace: surviving followers need their own failure detection and
	// election backoff before they re-join, so the fresh leader must not
	// count the silence since its own promotion against them.
	now := time.Now()
	for id := range n.peers {
		n.contact[id] = now
	}
	n.leaseRef = now.Add(2 * n.cfg.LeaseTimeout)
	term, applied := n.term, n.applied
	n.mu.Unlock()
	n.attached.Store(true)
	n.persistTerm(term)
	n.persistView()
	n.met.promotions.Inc()
	n.logf("promoted to leader (term %d, log index %d)", term, applied)
	n.wg.Add(1)
	go n.leaderHousekeeping()
}

// demote steps a leader down to follower after it lost its majority lease:
// it stops accepting writes (pending quorum waits fail with ErrDemoted),
// drops its follower streams, forgets the leader identity, and starts the
// follower loop to hunt for the majority side's leader. The mirror image of
// promote — leadership is no longer one-way.
func (n *Node) demote(reason string) {
	n.mu.Lock()
	finish, ok := n.demoteLocked()
	n.mu.Unlock()
	if ok {
		finish(reason)
	}
}

// demoteLocked flips the leader to follower under the caller's hold of n.mu:
// the role change, the WAL detach, and whatever state change motivated the
// demotion (a granted leadership claim adopting a higher term, say) land in
// one critical section, so no commit can slip through between them. It
// returns the teardown to run after unlock. Claim grants rely on the
// atomicity: a leader that adopted a claimed term but still had a live WAL
// for one more commit would stamp that write with the claimant's term.
func (n *Node) demoteLocked() (finish func(reason string), ok bool) {
	if n.closed || n.role != RoleLeader {
		return nil, false
	}
	n.role = RoleFollower
	w := n.wal
	n.wal = nil
	n.leader = Peer{} // unknown until the majority side's leader is found
	fols := n.followers
	n.followers = make(map[string]*followerConn)
	term := n.term
	return func(reason string) {
		if w != nil {
			w.Seal(ErrDemoted)
		}
		for _, f := range fols {
			f.conn.Close()
		}
		n.met.demotions.Inc()
		n.logf("stepping down at term %d: %s", term, reason)
		n.wg.Add(1)
		go n.followLoop("", true)
	}, true
}

// snapshotAt captures a database snapshot together with the WAL index it
// corresponds to. WAL appends happen under the engine lock (via the commit
// hook), so reading LastIndex inside SnapshotWith's locked observation
// yields the exact index the snapshot reflects — even under a sustained
// write stream.
func (n *Node) snapshotAt(w *minisql.WAL) ([]byte, uint64, error) {
	var buf bytes.Buffer
	var idx uint64
	if err := n.eng.SnapshotWith(&buf, func() { idx = w.LastIndex() }); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), idx, nil
}

// snapshotTimeout bounds snapshot transfer and restore during a join.
// Bootstrap moves the whole database, so its deadline must not be coupled to
// the heartbeat-scale failure-detection timeouts: a large task DB (or a slow
// WAN link) would otherwise time out every join attempt forever, each retry
// re-serializing a full snapshot.
func (n *Node) snapshotTimeout() time.Duration {
	d := 10 * n.cfg.ElectionTimeout
	if d < 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

func (n *Node) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-n.closeCh:
		return false
	case <-t.C:
		return true
	}
}

// dial connects to a peer's replication address through the configured
// dialer (the chaos seam) or the real network and sends the preamble.
func (n *Node) dial(addr string, timeout time.Duration) (net.Conn, error) {
	dialer := n.cfg.Dialer
	if dialer == nil {
		dialer = net.DialTimeout
	}
	conn, err := dialer("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte{replMagic, replVersion}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// jitter spreads a failure-detection or heartbeat interval ±20%. Identical
// configs otherwise fire their election timers in lockstep after a
// partition heals — every candidate probes, sees the same view, and backs
// off the same amount, making split elections more likely and synchronizing
// the retry storm that follows. Randomized timers are the standard fix
// (Raft §5.2); the promotion rank still decides the winner, jitter only
// de-synchronizes when each node looks.
func (n *Node) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d*4/5 + time.Duration(rand.Int63n(int64(d)*2/5+1))
}

// StepDown demotes a leader to follower on operator request — the graceful
// half of drain: a node about to shut down hands leadership off proactively
// instead of making the cluster discover its death by timeout. The caller
// is responsible for sequencing it after in-flight quorum waits resolve
// (service.Server.Drain does). No-op on followers; returns false when the
// node has no live peer to hand off to (a sole survivor demoting itself
// would just leave the cluster leaderless).
func (n *Node) StepDown() bool {
	n.mu.Lock()
	if n.closed || n.role != RoleLeader || len(n.peers) < 2 {
		n.mu.Unlock()
		return false
	}
	n.standDownUntil = time.Now().Add(4 * n.cfg.ElectionTimeout)
	n.mu.Unlock()
	n.demote("drain: operator-requested handoff")
	return true
}
