// Package replica turns the single-node EMEWS service into a leader/follower
// cluster, extending the paper's snapshot/restart fault tolerance (§II-B1c)
// to live node loss.
//
// Each node keeps one commit log (minisql.Log), where the leader's engine
// records every committed mutating statement; followers join over a small
// TCP protocol, bootstrap from an engine snapshot taken at a log index (or
// resume from their own position), then stream, replay and log its records.
// Replication is asynchronous by default: an acknowledged write may be lost
// if the leader dies before shipping it. With Config.WriteQuorum > 0 the
// leader counts follower acks into a quorum commit watermark and the service
// holds each write's reply until the watermark covers it, so an acknowledged
// write survives the leader's immediate death.
//
// # One place decides
//
// Every protocol decision is made by one pure function, step (step.go): it
// owns term, vote, role, view, the log's term and the commit watermark, and
// has no sockets, disk or clock — the only clock is the tick input. Its rule
// for each input:
//
//   - tick: a leader that heard no ack, join or probe from a majority of its
//     view within LeaseTimeout steps down (promotion starts a grace period
//     of two lease windows); an electing node with no requests out probes
//     again; a round out for two election timeouts counts its missing
//     replies as unreachable.
//   - probe: counts as contact, and is answered with the node's status.
//   - claim: granted when above the local term from a log at least as new,
//     by (appliedTerm, applied) compared lexicographically — Raft's election
//     restriction, where appliedTerm is the term of the leadership that
//     produced the newest applied entry. A granter adopts the term, steps
//     down if leading, takes the claimant into its view and follows it at
//     once; a refusal changes nothing.
//   - join: a joiner above a leader's term deposes it; a non-leader
//     redirects to the leader it knows; the leader takes the joiner into its
//     view and says hello — a heartbeat, allowing an incremental resume, only
//     when the joiner's term and applied term are both its own and it did
//     not ask for a snapshot; a snapshot otherwise, which makes the leader's
//     state authoritative and heals any divergent tail.
//   - heartbeat, snapshot: from a term below the node's, the stream drops;
//     otherwise the leader's term, identity and view are adopted. A snapshot
//     is installed, and only once it is (the applied input) does appliedTerm
//     become the leader's term and the node ack.
//   - entries: applied only from the leader followed at the current term,
//     and acked only if that is still so once they are applied — a node that
//     granted a newer term meanwhile never acks the old leadership. A
//     follower's watermark is the newest its leader's frames carry; a
//     snapshot starts it again from the hello's.
//   - ack: counts as contact, and only toward the leadership whose stream
//     carried it. A follower's ack is cumulative (a lower one changes
//     nothing); the leader's watermark rises to the highest index that
//     WriteQuorum followers' acks reach, and a rise is the commit output. A
//     promotion forgets every earlier leadership's acks and starts the
//     watermark at the one last shipped to the node, capped at its log;
//     with WriteQuorum 0 no ack commits (every appended entry counts).
//   - not-leader: the join is redirected; with no leader named, the node
//     hunts as if its stream had dropped.
//   - a lost stream (a failed request of round 0) starts an election. Every
//     node ranks the view without the lost leader the same way (priority
//     desc, ID asc) and waits its rank's share of election timeouts, probing
//     the whole view meanwhile: a reachable leader, or a hint naming one
//     other than the lost leader, ends the election. Past its wait, a round
//     in which a majority (self included) answered and nobody's log was
//     newer is the pre-vote: the node claims the next term from every member
//     and leads on grants from a majority. Anything else retries an election
//     timeout later, jittered ±20%.
//   - status and failed requests: counted into the round they answer.
//   - proposal (the commit hook): a leader's first write of a term moves
//     appliedTerm to it; off the leader the write is refused.
//   - operator: ForcePromote takes the next term without a vote; StepDown
//     demotes and sits out candidacy for four election timeouts, so the
//     handoff is not won straight back.
//
// node.go, leader.go and follower.go are the I/O side: dial and accept,
// frames (the codec in protocol.go), timers, the record data path
// (Log.Append, ship, applyRecords), the waits on the watermark and the
// database. They keep one ordering rule: a step's persist
// output — term, appliedTerm and view, one minisql.Meta — is on disk before
// any of its sends or role changes take effect, and a failed persist discards
// the step. So a candidate never claims, a granter never grants and a leader
// never leads at a term a restart could forget, no node votes twice in one
// term, and a restart that cannot read the record back fails New. The
// core is explored without sockets in step_test.go: three nodes, every
// interleaving of delivery, drop and tick to a bounded depth.
//
// On the wire, every replication connection opens with the preamble 0xF6,
// replVersion; a peer that opens otherwise — a build of versions 1 to 3,
// whose frames are gob, of version 4, whose snapshots are, or of version 5,
// whose snapshot is one frame — is closed unanswered, counted and logged. Then
// come frames, each a uvarint length, a type byte, a mask of the fields that
// are set and those fields (protocol.go has the layout and its bounds). An
// entries frame carries minisql records byte for byte; the follower decodes
// each into one entry it keeps for the stream, and the engine resolves the
// SQL text to the string of the handle it prepared, so the stream allocates
// little beyond the rows it stores.
//
// A bootstrap is a record stream too: the leader writes a snapshot of its
// live engine onto the connection — a hello, each ~64 KiB of checkpoint
// records as a chunk frame, an end frame — and the follower restores (and
// tees to its checkpoint file) as chunks arrive, acking each, and installs
// only once the last record checks out. Entries frames close at
// codec.KeepBytes of records, so no frame passes that budget and one record,
// and no wait has a deadline but the stream's per-frame ones.
//
// The node's data path keeps the core's log rule true. A joiner that
// installs a snapshot takes the leader's term as its applied term, so the
// snapshot always covers the leader's log as of its election: it is the
// leader's live engine. A leader's commit watermark — what its watch gate
// and its followers' publish — starts at the watermark it was last shipped
// as a follower, not at the end of its log, and never passes what it holds
// on disk: an entry in memory only is not committed.
//
// Membership is every peer a leader ever admitted by join, persisted in the
// view, so a restart elects against the real majority denominator. Removing
// a member is not supported. The cost: a permanently dead member counts in
// every majority, and a dead high-priority one costs each later election one
// rank slot (an election timeout).
//
// Because a majority of grants is a majority that has left the old term, any
// write quorum a deposed leader could still assemble needs a granter, and
// granters refuse its frames: quorum-acknowledged writes survive failover,
// and a minority side cannot elect. Automatic failover therefore needs 3+
// nodes; a 2-node cluster that loses either member is read-only until the
// peer returns or an operator forces promotion (ForcePromote). The chaos
// suite (internal/chaos) checks all of this under seeded partitions, disk
// faults and crashes.
package replica

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
	"osprey/internal/wait"
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
	// DataDir enables durable storage: the commit log writes every entry
	// through to segments under this directory (which serve a lagging
	// follower below a leader's window), periodic checkpoints bound them, and
	// a restart recovers the node's state from disk — no live peer required.
	// Empty (the default) keeps the node fully in-memory.
	DataDir string
	// Fsync, with DataDir set, makes the node acknowledge writes (and ack
	// replicated entries) only after fsync, surviving machine/power loss.
	// Off, durability covers process death (kill -9) but not machine loss.
	Fsync bool
	// CheckpointEvery is the automatic checkpoint interval in log entries
	// (0: default 10000; negative disables). Only meaningful with DataDir.
	CheckpointEvery int
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
// core.DB, ships (or applies) its commit log, and drives the protocol
// core (step) with frames, timers and disk. Create with New, wire the service
// with service.ServeNode (or SetServiceAddr + Start), and shut down with
// Close.
type Node struct {
	cfg   Config
	db    *core.DB
	eng   *minisql.Engine
	store *minisql.Store // durable log + checkpoints (nil: in-memory node)
	log   *minisql.Log   // the node's commit log; its window is open while it leads
	ln    net.Listener
	born  time.Time // origin of the clock the core is ticked with

	met *nodeMetrics // replication metrics (obs.go), on the DB's registry

	mu        sync.Mutex
	st        state // the protocol state; only step changes its decisions
	followers map[string]*followerConn
	stream    net.Conn // follower's live connection to the leader
	started   bool
	closed    bool

	// Leader-health evidence for readiness (obs.go): when the leader was
	// last heard from on the stream, its last reported applied index, and
	// when this node's own applied index last advanced.
	leaderContact time.Time
	leaderApplied uint64
	lastProgress  time.Time

	peers   wait.Signal // woken when membership changes
	applied wait.Signal // woken when the applied index moves and when the node closes
	commits wait.Signal // woken when a leader's watermark advances, its leadership ends or the node closes
	closeCh chan struct{}
	kick    chan struct{} // wakes the follow loop: the leader to follow changed

	quorumWaiters atomic.Int32  // writers blocked in WaitQuorumIndex: the group-commit signal
	groupCommit   time.Duration // the group-commit flush deadline: groupCommitDelay, which tests lengthen before Start
	wg            sync.WaitGroup

	// attached latches once this node's state is first tied to the cluster's
	// log in this process: it boots or is promoted as leader, or — as a
	// follower — its first join has been answered and processed (bootstrap
	// snapshot installed, or resume accepted). See Attached.
	attached atomic.Bool
}

// groupCommitDelay is the group-commit flush deadline: while two or more
// writers are blocked in quorum waits (WaitQuorumIndex), the leader holds the
// next flush this long, so commits landing close together ship as one frame
// and one follower ack covers them all. A serial writer never pays it; in
// asynchronous mode (WriteQuorum 0) nobody blocks and it never engages.
const groupCommitDelay = 200 * time.Microsecond

// viewMeta is the durably persisted membership view: the peers list this
// node last adopted, JSON-encoded into minisql.Meta's View.
type viewMeta struct {
	Peers []Peer
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
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	var db *core.DB
	var err error
	if cfg.DataDir != "" {
		// Durable node: recover engine state from the data directory
		// (checkpoint + log tail) before any peer contact.
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
		log:       db.Log(),
		ln:        ln,
		born:      time.Now(),
		followers: make(map[string]*followerConn),
		closeCh:   make(chan struct{}),
		kick:      make(chan struct{}, 1),

		groupCommit: groupCommitDelay,
	}
	n.met = newNodeMetrics(db.Metrics())
	n.registerCollectors(db.Metrics())
	self := Peer{ID: cfg.ID, Priority: cfg.Priority, ReplAddr: n.Addr(), SvcAddr: cfg.ServiceAddr}
	n.st = newState(self, cfg.Join, cfg.ElectionTimeout, cfg.LeaseTimeout, cfg.WriteQuorum, rand.Uint64())
	if n.store != nil {
		// Resume the cluster position recovered from disk: the engine's
		// replayed high-water mark, the persisted terms and view. A restarted
		// follower re-joins from there (no re-bootstrap).
		m := n.store.Meta()
		var vm viewMeta
		if len(m.View) > 0 {
			if err = json.Unmarshal(m.View, &vm); err != nil {
				err = fmt.Errorf("replica: persisted membership view: %w", err)
			}
		}
		n.st.restore(m.Term, m.AppliedTerm, n.eng.LastLogged(), vm.Peers)
	}
	if err == nil && cfg.Join == "" {
		// A bootstrap leader always starts a NEW term, even over one
		// recovered from disk. Crash recovery can roll its log back past
		// entries a follower already applied (a non-fsync tail lost with the
		// OS buffers, or a frame streamed before its fsync completed);
		// resuming the old term would let such a follower pass the same-term
		// resume check and then watch new writes reuse its indexes with
		// different content. The bump forces returning followers through the
		// snapshot path, which heals any divergence wholesale.
		_, err = n.step(input{ev: evPromote}, nil)
	}
	if err != nil {
		ln.Close()
		db.Close()
		return nil, err
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

// step feeds one input to the core and carries out the outputs every caller
// shares — requests, role changes, following, logs — returning all of them
// for the caller's own (replies, hello, install, apply, ack). A persist
// output reaches disk before the new state is published or anything else
// happens; if it fails, the step is discarded: the state stays as it was,
// nothing is sent, and the error is returned. out is appended to, so a
// caller's buffer keeps the hot inputs (ack, entries) free of allocations.
func (n *Node) step(in input, out []output) ([]output, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if in.ev == evApplied && in.f.Type == frameSnapshot {
		// Unlike setApplied this may move the index backwards: a
		// re-bootstrap replaces local state wholesale, and the index tracks
		// it down too. WaitApplied callers are woken either way and re-block
		// until the stream catches back up past their token.
		n.st.applied = in.f.SnapIndex
		n.lastProgress = time.Now()
		n.applied.Wake()
	}
	out, err := n.stepLocked(in, out)
	var fols map[string]*followerConn
	var stream net.Conn
	for _, o := range out {
		switch o.do {
		case doRequest:
			n.wg.Add(1) // under mu: Close cannot be waiting yet
		case doLead:
			n.log.SetWindow(true) // the log ends at the applied index: numbering continues
			n.followers = make(map[string]*followerConn)
			stream = n.stream
		case doDemote:
			// In the critical section that published the role: no commit can
			// reach the window, and the leadership's quorum waiters wake to fail.
			fols = n.followers
			n.followers = make(map[string]*followerConn)
			n.log.SetWindow(false)
			n.commits.Wake()
		case doFollow:
			stream = n.stream
		case doCommit:
			if n.st.role == RoleLeader {
				// Releases the quorum waiters and the per-follower senders,
				// which ship the new watermark in a heartbeat.
				n.commits.Wake()
			}
		}
	}
	term, applied := n.st.term, n.st.applied
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Teardown before the caller's reply: a grant must not be observable
	// while this node could still ack the leadership it left.
	if stream != nil {
		stream.Close()
	}
	for _, o := range out {
		switch o.do {
		case doRequest:
			go n.request(o)
		case doFollow:
			select {
			case n.kick <- struct{}{}:
			default:
			}
		case doLead:
			n.attached.Store(true)
			n.met.promotions.Inc()
			n.logf("promoted to leader (term %d, log index %d)", term, applied)
		case doDemote:
			for _, f := range fols {
				f.conn.Close()
			}
			n.met.demotions.Inc()
			n.logf("stepping down at term %d: %s", term, o.why)
		case doLog:
			n.logf("%s", o.why)
		}
	}
	return out, nil
}

// stepLocked runs the core on a copy of the state and publishes the copy
// once its persist output (always last, when there is one) is on disk.
// Caller holds n.mu.
func (n *Node) stepLocked(in input, out []output) ([]output, error) {
	next := n.st
	out = step(&next, in, out)
	if k := len(out) - 1; k >= 0 && out[k].do == doPersist {
		if err := n.persist(out[k]); err != nil {
			return nil, err
		}
		if out[k].view {
			// Wake every follower stream: the view reaches the cluster within
			// one send, not one heartbeat tick.
			n.peers.Wake()
		}
	}
	n.st = next
	return out, nil
}

// persist writes a persist output to the durable store (no-op in-memory) in
// one SetMeta, which is itself a no-op when nothing moved.
func (n *Node) persist(o output) error {
	if n.store == nil {
		return nil
	}
	m := n.store.Meta()
	m.Term, m.AppliedTerm = o.f.Term, o.f.AppliedTerm
	var err error
	if o.view {
		m.View, err = json.Marshal(viewMeta{Peers: o.f.Peers})
	}
	if err == nil {
		err = n.store.SetMeta(m)
	}
	if err != nil {
		return fmt.Errorf("replica: persisting term %d: %w", o.f.Term, err)
	}
	return nil
}

// Start launches the replication loops. Idempotent.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.closed {
		return
	}
	n.started = true
	n.wg.Add(3)
	go n.acceptLoop()
	go n.tickLoop()
	go n.followLoop()
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
	// Parked WaitApplied and WaitQuorumIndex calls wake to fail with ErrClosed.
	n.applied.Wake()
	n.commits.Wake()
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

// tickLoop feeds the core its clock every heartbeat, and on an
// election-timeout cadence compacts a leader's window.
func (n *Node) tickLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.Heartbeat)
	defer tick.Stop()
	slowEvery := max(1, int(n.cfg.ElectionTimeout/n.cfg.Heartbeat))
	for i := 1; ; i++ {
		select {
		case <-n.closeCh:
			return
		case <-tick.C:
		}
		n.step(input{ev: evTick, now: time.Since(n.born)}, nil)
		if i%slowEvery == 0 {
			n.compact()
		}
	}
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
	n.st.setSelf(Peer{ID: n.cfg.ID, Priority: n.cfg.Priority, ReplAddr: n.Addr(), SvcAddr: addr})
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
	return n.st.role
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
	return n.st.term
}

// Applied returns the index of the last log entry applied to (or committed
// by) this node's database.
func (n *Node) Applied() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.applied
}

// LeaderServiceAddr returns the EMEWS service address of the current leader
// ("" while no leader is known).
func (n *Node) LeaderServiceAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.leader.SvcAddr
}

// Peers returns the node's view of cluster membership in promotion order.
func (n *Node) Peers() []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Peer(nil), n.st.peers...)
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
// statements to the node's log, which wakes the per-follower senders, and
// returns the assigned index — the commit token the engine hands back to the
// caller through TxLogged. It runs under the engine lock, so it only touches
// the core and the log. A failed append refuses the commit. Off the leader it
// refuses too: a write that reaches this node's database anyway (the node
// was demoted between the service's leadership check and the write; a poll
// parked on an ex-leader woken by a replayed transition) would be applied
// here, logged nowhere, published at token 0 and acknowledged.
func (n *Node) onCommit(stmts []minisql.Stmt) (uint64, error) {
	var buf [1]output
	n.mu.Lock()
	_, err := n.stepLocked(input{ev: evPropose}, buf[:0])
	lead := n.st.role == RoleLeader
	n.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if !lead {
		return 0, ErrNotLeader
	}
	idx, err := n.log.Append(stmts)
	if err == nil {
		n.setApplied(idx)
	}
	return idx, err
}

// setApplied advances the applied index (never regresses) and wakes
// WaitApplied callers.
func (n *Node) setApplied(idx uint64) {
	n.mu.Lock()
	if idx > n.st.applied {
		n.st.applied = idx
		n.lastProgress = time.Now()
		n.applied.Wake()
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
	// ErrQuorumTimeout is returned by WaitQuorumIndex when the watermark
	// does not reach the index within its bounded window.
	ErrQuorumTimeout = fmt.Errorf("replica: quorum commit timeout")
	// ErrStale is returned by WaitApplied when the replica cannot reach the
	// requested log index within the staleness bound: the caller's freshness
	// requirement (commit token) is ahead of this replica.
	ErrStale = fmt.Errorf("replica: replica behind requested commit token")
	// ErrClosed is returned by waits on a closed node.
	ErrClosed = fmt.Errorf("replica: node closed")
)

// Committed returns the quorum commit watermark on the leader (equal to
// Applied in asynchronous mode) and the applied index elsewhere.
func (n *Node) Committed() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st.role != RoleLeader {
		return n.st.applied
	}
	return n.committedLocked(n.st.term)
}

// leadingLocked reports whether the node still holds the leadership of term
// (it leads a term at most once). Caller holds n.mu.
func (n *Node) leadingLocked(term uint64) bool {
	return n.st.role == RoleLeader && n.st.term == term
}

// committed is the commit watermark of the leadership of term.
func (n *Node) committed(term uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.committedLocked(term)
}

// committedLocked is the commit watermark of the leadership of term (0 once
// that leadership has ended): step's quorum watermark — in asynchronous mode
// every appended entry — capped at what the leader holds durably. An entry
// in the disk's buffers but not yet fsynced is not committed however many
// followers ack it: the leader's restart forgets it, and a majority without
// it can elect. Caller holds n.mu.
func (n *Node) committedLocked(term uint64) uint64 {
	if !n.leadingLocked(term) {
		return 0
	}
	c := n.st.committed
	if n.cfg.WriteQuorum <= 0 {
		c = n.log.LastIndex()
	}
	if n.store != nil {
		c = min(c, n.store.Synced())
	}
	return c
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
	term, lead := n.st.term, n.st.role == RoleLeader
	if !lead {
		n.mu.Unlock()
		return ErrNotLeader
	}
	n.quorumWaiters.Add(1)
	t0 := time.Now()
	timeout := 2 * n.cfg.LeaseTimeout
	err := wait.For(&n.mu, &n.commits, timeout, func() (bool, error) {
		switch {
		case !n.leadingLocked(term):
			return false, ErrDemoted
		case n.st.committed >= idx:
			return true, nil
		case n.closed:
			return false, ErrClosed
		}
		return false, nil
	})
	n.mu.Unlock()
	n.quorumWaiters.Add(-1)
	n.met.quorumWait.ObserveSince(t0)
	if err == wait.ErrTimeout {
		err = fmt.Errorf("%w: index %d not replicated to %d followers within %v", ErrQuorumTimeout, idx, n.cfg.WriteQuorum, timeout)
	}
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
	n.mu.Lock()
	defer n.mu.Unlock()
	err := wait.For(&n.mu, &n.applied, timeout, func() (bool, error) {
		switch {
		case n.st.applied >= idx:
			return true, nil
		case n.closed:
			return false, ErrClosed
		}
		return false, nil
	})
	if err == wait.ErrTimeout {
		err = fmt.Errorf("%w: have %d, need %d after %v", ErrStale, n.st.applied, idx, timeout)
	}
	return err
}

// ForcePromote is the operator escape hatch for clusters that cannot form an
// electing majority — the canonical case is a 2-node cluster after one node
// dies, where the survivor is 1 of 2 and the majority gate (correctly)
// refuses automatic failover. It promotes this node to leader immediately,
// at the next term, overriding the gate. The operator asserts what the
// protocol cannot know: that the missing peers are really dead, not
// partitioned away. Forcing promotion on BOTH sides of a live partition
// creates split brain, exactly as it would in any quorum system. Idempotent
// on a current leader; fails when the new term cannot be persisted.
func (n *Node) ForcePromote() error {
	if !n.IsLeader() {
		n.logf("forced promotion: operator override of the majority election gate")
	}
	_, err := n.step(input{ev: evPromote}, nil)
	return err
}

// StepDown demotes a leader to follower on operator request — the graceful
// half of drain: a node about to shut down hands leadership off proactively
// instead of making the cluster discover its death by timeout. The caller
// is responsible for sequencing it after in-flight quorum waits resolve
// (service.Server.Drain does). No-op on followers; returns false when the
// node has no peer to hand off to (a sole member demoting itself would just
// leave the cluster leaderless).
func (n *Node) StepDown() bool {
	out, _ := n.step(input{ev: evStepDown}, nil)
	for _, o := range out {
		if o.do == doDemote {
			return true
		}
	}
	return false
}

func (n *Node) sleep(d time.Duration) bool {
	t := wait.Timer(d)
	defer wait.Release(t)
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
