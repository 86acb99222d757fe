package replica

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"time"

	"osprey/internal/minisql"
)

// runFollower is the follower's main loop: stream from the current leader
// until the connection dies, then either follow a redirect or run the
// deterministic promotion protocol.
func (n *Node) runFollower() {
	n.followLoop(n.cfg.Join, n.everJoined)
}

// followLoop streams from target (probing the membership for a leader when
// target is empty, as after a demotion). joined says whether this node has
// ever been part of the cluster — only then may it take part in elections.
func (n *Node) followLoop(target string, joined bool) {
	defer n.wg.Done()
	forceSnap := false
	for !n.isClosed() {
		if n.IsLeader() {
			// Promoted out from under the loop (operator ForcePromote):
			// leader duties already run in their own goroutines.
			return
		}
		if target == "" {
			// No leader known (this node just stepped down, or restarted
			// into a leaderless cluster): probe the membership until somebody
			// claims or names one.
			target = n.leaderHint()
			if target == "" {
				if joined {
					// Nobody anywhere claims or names a leader. A node that
					// has been part of the cluster must fall into the election
					// protocol rather than wait forever — after a full-cluster
					// restart there is no leader to find, only one to elect.
					// The majority and log gates still apply.
					target = n.electOrPromote("")
					if target == "" {
						return // promoted (or closed)
					}
					continue
				}
				if !n.sleep(n.cfg.Heartbeat) {
					return
				}
				continue
			}
		}
		redirect, err := n.followOnce(target, &joined, forceSnap)
		// A log gap or an entry that fails to apply means this replica's
		// state no longer extends the leader's log; re-join with From 0 so
		// the leader sends a fresh snapshot. Resuming instead would re-ship
		// the identical entry, fail identically, and hot-loop forever.
		forceSnap = errors.Is(err, errLogGap) || errors.Is(err, errApply)
		if n.isClosed() {
			return
		}
		if redirect != "" && redirect != target {
			target = redirect
			continue
		}
		if err != nil {
			n.logf("stream from %s ended: %v", target, err)
		}
		if !joined {
			// Never been part of the cluster yet (the leader may still be
			// starting): keep knocking on the configured join address
			// instead of claiming leadership with a one-node world view.
			if !n.sleep(n.cfg.Heartbeat) {
				return
			}
			continue
		}
		target = n.electOrPromote(target)
		if target == "" {
			return // promoted: leader duties run in their own goroutines
		}
	}
}

// errLogGap marks a shipped entry that does not extend the applied prefix;
// errApply marks an entry whose replay failed. Both mean local state has
// diverged from the leader's log, and the follower re-joins with a forced
// snapshot to heal.
var (
	errLogGap = errors.New("replica: log gap")
	errApply  = errors.New("replica: entry apply failed")
)

// followOnce joins the leader at addr and applies its stream until the
// connection fails. It returns a redirect address when the contacted node
// pointed at a different leader. forceSnap requests a snapshot bootstrap
// even when an incremental resume would be possible.
func (n *Node) followOnce(addr string, joined *bool, forceSnap bool) (redirect string, err error) {
	conn, err := n.dial(addr, n.cfg.ElectionTimeout)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return "", errors.New("replica: node closed")
	}
	n.stream = conn
	self := n.selfPeerLocked()
	applied, term, appliedTerm := n.applied, n.term, n.appliedTerm
	n.mu.Unlock()
	defer func() {
		conn.Close()
		n.mu.Lock()
		if n.stream == conn {
			n.stream = nil
		}
		n.mu.Unlock()
	}()

	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	from := applied
	if forceSnap {
		from = 0
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	if err := enc.Encode(&frame{Type: frameJoin, Peer: self, From: from, Term: term, AppliedTerm: appliedTerm}); err != nil {
		return "", err
	}

	// The hello may carry a full database snapshot, so the first read gets
	// the bootstrap deadline; after that heartbeats arrive every
	// cfg.Heartbeat and a silent leader is dead.
	readDeadline := n.snapshotTimeout()
	for {
		conn.SetReadDeadline(time.Now().Add(readDeadline))
		readDeadline = 2 * n.cfg.ElectionTimeout
		var f frame
		if err := dec.Decode(&f); err != nil {
			return "", err
		}
		if f.Type != frameNotLeader {
			// A frame below this node's term is a deposed leader that does
			// not know it yet (this node granted a newer leadership claim, or
			// adopted a newer term elsewhere). Applying — or worse, acking —
			// its entries would count this node toward a write quorum of a
			// leadership the cluster has already voted past.
			if cur := n.Term(); f.Term < cur {
				return "", fmt.Errorf("replica: stale leader term %d < %d", f.Term, cur)
			}
			n.noteLeaderFrame(f)
		}
		switch f.Type {
		case frameNotLeader:
			return f.LeaderRepl, nil
		case frameSnapshot:
			if err := n.applySnapshot(f); err != nil {
				return "", err
			}
			*joined = true
			n.ack(enc, conn)
		case frameEntries:
			ok, err := n.applyRecords(f.Records)
			if ok {
				// Even if a later record failed: the re-join's resume gate
				// compares applied terms.
				n.noteAppliedTerm(f.Term)
			}
			if err != nil {
				return "", err
			}
			// The leader's quorum watermark rides every entries frame:
			// release the watch transitions it covers (applied entries
			// buffered by the gate) before acking.
			n.db.AdvanceWatch(f.Committed)
			if ok {
				n.ack(enc, conn)
			}
		case frameHeartbeat:
			if err := n.adoptView(f); err != nil {
				return "", err
			}
			// The answer to an accepted resume is a heartbeat: local state
			// already extends the leader's log, no install will replace it.
			n.attached.Store(true)
			n.db.AdvanceWatch(f.Committed)
			n.ack(enc, conn)
		}
	}
}

// ack reports this follower's applied high-water mark back to the leader.
// On a durable node with fsync enabled the ack waits until that index is
// actually on disk first — ack-after-fsync ordering, so the leader's quorum
// watermark only ever counts follower state that survives a crash. One wait
// covers a whole batched entries frame, riding the same group-commit
// economics as the leader's fsync. A follower whose disk cannot keep its
// promise drops the stream instead of lying.
func (n *Node) ack(enc *gob.Encoder, conn net.Conn) {
	applied := n.Applied()
	if n.store != nil && n.store.Fsync() {
		if err := n.store.WaitDurable(applied, 4*n.cfg.ElectionTimeout); err != nil {
			n.logf("durability wait before ack of %d: %v", applied, err)
			conn.Close()
			return
		}
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	enc.Encode(&frame{Type: frameAck, Applied: applied})
}

// applySnapshot bootstraps the local database from the leader's snapshot and
// adopts its term and membership view.
func (n *Node) applySnapshot(f frame) error {
	if err := n.adoptView(f); err != nil {
		return err
	}
	if err := n.db.Restore(bytes.NewReader(f.Snapshot)); err != nil {
		return fmt.Errorf("replica: restoring snapshot: %w", err)
	}
	// Unlike setApplied this may move the index backwards: a re-bootstrap
	// after divergence replaces local state with the leader's authoritative
	// snapshot wholesale, so the applied index must track it down too.
	// WaitApplied callers are woken either way and simply re-block until the
	// stream catches back up past their token.
	n.mu.Lock()
	n.applied = f.SnapIndex
	n.lastProgress = time.Now()
	close(n.appliedCh)
	n.appliedCh = make(chan struct{})
	n.mu.Unlock()
	n.eng.SetLastLogged(f.SnapIndex)
	// Reposition the watch hub's resume floor at the snapshot index: Restore
	// already reseeded it, but with whatever stale high-water mark the engine
	// held mid-bootstrap. Local watch subscribers were reset and will resync.
	n.db.ResetWatch(f.SnapIndex)
	if n.store != nil {
		// Persist the bootstrap: the snapshot becomes the local checkpoint
		// and the old log (a replaced history) is discarded, so a restart
		// recovers from this point instead of re-bootstrapping.
		if err := n.store.InstallSnapshot(f.Snapshot, f.SnapIndex); err != nil {
			return fmt.Errorf("replica: persisting snapshot: %w", err)
		}
	}
	// The snapshot is a byte copy of the term-f.Term leader's state: prefix
	// identity with that leader's log is established wholesale, which is
	// what entitles later same-term joins to the incremental resume path.
	n.noteAppliedTerm(f.Term)
	n.attached.Store(true)
	n.met.snapsInstall.Inc()
	n.logf("bootstrapped from snapshot at index %d (term %d)", f.SnapIndex, f.Term)
	return nil
}

// applyOne replays one shipped entry and persists the record it came in;
// duplicates (replays after a reconnect) are skipped, gaps force a re-join
// (and fresh snapshot).
func (n *Node) applyOne(ent minisql.LogEntry, rec []byte) (applied bool, err error) {
	n.mu.Lock()
	cur := n.applied
	n.mu.Unlock()
	if ent.Index <= cur {
		return false, nil
	}
	if ent.Index != cur+1 {
		return false, fmt.Errorf("%w: have %d, got %d", errLogGap, cur, ent.Index)
	}
	if err := n.eng.ApplyEntry(ent); err != nil {
		return false, fmt.Errorf("%w: %v", errApply, err)
	}
	if n.store != nil {
		// Persist the applied entry, as the leader's bytes, so a restarted
		// follower re-joins from its own recovered position instead of
		// taking a fresh snapshot.
		if err := n.store.AppendRecords(minisql.Record{Index: ent.Index, Data: rec}); err != nil {
			n.logf("disk WAL append %d: %v", ent.Index, err)
		}
	}
	n.met.entriesApp.Inc()
	n.setApplied(ent.Index)
	return true, nil
}

// applyRecords replays one group-committed batch in order. A record that
// fails minisql's CRC/structure check is a damaged stream, not a diverged
// log: the error drops the connection before any ack and the re-join resumes
// from the last applied entry, no forced snapshot. Each entry advances the
// applied index individually, so a crash mid-batch re-joins from exactly the
// last applied entry and the leader re-ships the rest; the single ack the
// caller sends afterwards carries the batch high-water mark, advancing the
// leader's quorum watermark for every entry at once.
func (n *Node) applyRecords(b []byte) (applied bool, err error) {
	for len(b) > 0 {
		ent, size, err := minisql.DecodeRecord(b)
		if err != nil {
			return applied, fmt.Errorf("replica: shipped record after index %d: %w", n.Applied(), err)
		}
		ok, err := n.applyOne(ent, b[:size])
		if err != nil {
			return applied, err
		}
		if ok {
			applied = true
		}
		b = b[size:]
	}
	return applied, nil
}

// adoptView ingests the leader's term, membership and identity from a
// snapshot or heartbeat frame, rejecting stale terms. The leader's ID is
// shipped explicitly (LeaderID) so dead-leader filtering in elections never
// has to fall back to address comparison: matching a membership entry by
// ReplAddr alone fails whenever the advertised address differs from the one
// in the peer list.
func (n *Node) adoptView(f frame) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f.Term < n.term {
		return fmt.Errorf("replica: stale leader term %d < %d", f.Term, n.term)
	}
	n.term = f.Term
	n.leader = Peer{ID: f.LeaderID, ReplAddr: f.LeaderRepl, SvcAddr: f.LeaderSvc}
	peers := make(map[string]Peer, len(f.Peers)+1)
	for _, p := range f.Peers {
		peers[p.ID] = p
		if f.LeaderID != "" && p.ID == f.LeaderID {
			n.leader = p
		}
	}
	self := n.selfPeerLocked()
	peers[self.ID] = self
	n.peers = peers
	// Persist the adopted term and membership view so a restart rejoins at
	// the cluster's term with the cluster's majority denominator (both
	// setters no-op when unchanged, keeping the heartbeat path free of file
	// I/O).
	if n.store != nil {
		if err := n.store.SetTerm(f.Term); err != nil {
			n.logf("persisting term %d: %v", f.Term, err)
		}
		n.persistViewLocked()
	}
	return nil
}

// promotionRank returns this node's election backoff rank within the ranked
// candidate list. A node missing from its own membership view (view lost —
// e.g. a snapshot raced the heartbeat that named it) ranks LAST, not first:
// claiming instant leadership from a lost view is how two nodes split-brain
// simultaneously. Ranked last, it sits out the full backoff probing everyone
// else and only promotes when every candidate it can see stayed silent.
func promotionRank(cands []Peer, selfID string) int {
	for i, p := range cands {
		if p.ID == selfID {
			return i
		}
	}
	return len(cands)
}

// electOrPromote runs the deterministic failover protocol after losing the
// leader at deadAddr. Every surviving node ranks the remaining membership
// identically (priority desc, ID asc). The top-ranked node proceeds to the
// promotion gate immediately; each lower rank waits rank x ElectionTimeout
// while probing better-ranked peers, following whichever declares itself
// leader first, and enters the gate only when every better candidate stayed
// silent. The gate itself (promoteGated) requires a reachable majority and
// an up-to-date log. Returns the new leader's replication address, or ""
// after self-promotion.
func (n *Node) electOrPromote(deadAddr string) string {
	// A node that has just stepped down sits out the election it triggered:
	// standing now would often win leadership straight back, defeating the
	// handoff. Follow whoever emerges; candidacy resumes when the window
	// expires, so a failed handoff cannot leave the cluster leaderless.
	n.mu.Lock()
	standDown := n.standDownUntil
	n.mu.Unlock()
	for time.Now().Before(standDown) {
		if n.isClosed() {
			return ""
		}
		if addr := n.leaderHint(); addr != "" {
			return addr
		}
		if !n.sleep(n.cfg.Heartbeat) {
			return ""
		}
	}
	// A broken stream is not proof of death: if the old leader still answers
	// probes as leader, re-join it instead of electing.
	if f, ok := n.probe(deadAddr); ok && f.Role == RoleLeader {
		return deadAddr
	}
	n.mu.Lock()
	deadID := n.leader.ID
	cands := make([]Peer, 0, len(n.peers))
	for _, p := range n.peers {
		if p.ID != deadID && p.ReplAddr != deadAddr {
			cands = append(cands, p)
		}
	}
	self := n.selfPeerLocked()
	n.mu.Unlock()
	rankPeers(cands)

	myIdx := promotionRank(cands, self.ID)
	if myIdx > 0 {
		n.logf("leader %s lost; rank %d of %d in election", deadID, myIdx, len(cands))
		deadline := time.Now().Add(n.jitter(time.Duration(myIdx) * n.cfg.ElectionTimeout))
		for time.Now().Before(deadline) {
			if n.isClosed() {
				return ""
			}
			limit := myIdx
			if limit > len(cands) {
				limit = len(cands)
			}
			for _, c := range cands[:limit] {
				if c.ID == self.ID {
					continue
				}
				f, ok := n.probe(c.ReplAddr)
				if !ok {
					continue
				}
				if f.Role == RoleLeader {
					return c.ReplAddr
				}
				if f.LeaderRepl != "" && f.LeaderRepl != deadAddr && f.LeaderRepl != c.ReplAddr && f.LeaderRepl != self.ReplAddr {
					return f.LeaderRepl
				}
			}
			if !n.sleep(n.cfg.Heartbeat) {
				return ""
			}
		}
	}
	return n.promoteGated(cands, deadAddr)
}

// promoteGated is the final step of an election, two rounds per attempt.
//
// Round one is the pre-vote: probe the membership and proceed only when a
// majority is reachable (counting self) and no reachable peer has a more
// up-to-date log. Up-to-date is the (appliedTerm, applied) pair compared
// lexicographically, Raft's election rule: a log whose newest entry came
// from a later leadership wins outright, same-leadership logs compare
// length. Comparing bare applied indexes would let a demoted ex-leader's
// unreplicated local writes (high index, stale term) outrank a newer
// leader's quorum-acknowledged entries and silently discard them.
//
// Round two is the claim: bump the local term past every term seen and ask
// each peer to grant it (frameClaim). A grant adopts the claimed term on the
// granter — detaching it from whatever leader it was still acking — so
// majority grants don't merely elect this node, they depose the old leader:
// it can never again assemble a write quorum, because any quorum would need
// a granter, and granters reject its stale-term frames. Without this round
// an asymmetric partition (old leader unreachable from here, still reachable
// from its followers) elects a second leader while the first keeps
// committing, and one history eventually rolls back acked writes.
//
// The pre-vote keeps claim traffic (and term inflation) to candidates that
// could actually win; the grant's own term and log checks hold the safety
// line regardless. A deferring node loops — the better candidate promotes on
// its own backoff and is discovered by the next probe round. A consequence
// of the majority gate: a 2-node cluster cannot fail over automatically (the
// survivor is 1 of 2, not a majority) — live failover needs 3+ nodes, the
// standard quorum trade.
//
// Probes cover the FULL membership view, not just the election candidates:
// the lost leader is excluded from candidacy but still counts toward
// reachability (a crashed ex-leader back as a follower is a live majority
// member), still competes on log position, and may even be leading again
// after a heal. Counting candidates only undercounts the majority and
// stalls a healthy cluster.
func (n *Node) promoteGated(cands []Peer, deadAddr string) string {
	for !n.isClosed() {
		n.mu.Lock()
		myTerm, myApplied, myAppliedTerm := n.term, n.applied, n.appliedTerm
		peers := n.peerListLocked()
		majority := len(n.peers)/2 + 1
		self := n.selfPeerLocked()
		n.mu.Unlock()
		reachable := 1 // self
		behind := false
		deadProbed := false
		maxTerm := myTerm
		for _, c := range peers {
			if c.ID == self.ID {
				continue
			}
			if c.ReplAddr == deadAddr {
				deadProbed = true
			}
			f, ok := n.probe(c.ReplAddr)
			if !ok {
				continue
			}
			reachable++
			if f.Term > maxTerm {
				maxTerm = f.Term
			}
			if f.Role == RoleLeader {
				// Follow even a leader whose term is below ours (possible
				// after granting a claim whose candidate then died): the join
				// carries our higher term, which deposes it and forces the
				// re-election that reconciles the cluster — ignoring it would
				// leave this node electing against a leader it can't join.
				return c.ReplAddr
			}
			if f.LeaderRepl != "" && f.LeaderRepl != deadAddr && f.LeaderRepl != c.ReplAddr && f.LeaderRepl != self.ReplAddr {
				return f.LeaderRepl
			}
			if f.AppliedTerm > myAppliedTerm || (f.AppliedTerm == myAppliedTerm && f.Applied > myApplied) {
				behind = true
			}
		}
		// The lost leader may have healed or restarted on the same address
		// without being in the view anymore (a decayed membership): re-probe
		// it every round, or a node whose view shrank to {self, leader}
		// would stall forever with the healthy leader one dial away.
		if deadAddr != "" && !deadProbed {
			if f, ok := n.probe(deadAddr); ok && f.Role == RoleLeader {
				return deadAddr
			}
		}
		if reachable >= majority && !behind {
			if addr := n.claimRound(peers, self, maxTerm, majority); addr != "" || n.IsLeader() {
				return addr
			}
		} else {
			n.logf("election stalled: %d/%d reachable (majority %d), behind=%v",
				reachable, len(peers), majority, behind)
		}
		if !n.sleep(n.jitter(n.cfg.ElectionTimeout)) {
			return ""
		}
	}
	return ""
}

// claimRound claims leadership of the term after maxTerm from every peer in
// the view, promoting on majority grants (counting the candidate's own).
// Returns the address of a leader to follow instead when one is discovered
// mid-round, "" otherwise — with the node promoted iff IsLeader() reports
// so. The local term is bumped to the claimed term up front: that is the
// candidate's vote for itself, and keeps it from granting a rival claim to
// the same term while its own round is in flight.
func (n *Node) claimRound(peers []Peer, self Peer, maxTerm uint64, majority int) string {
	n.mu.Lock()
	claimTerm := maxTerm + 1
	if n.term >= claimTerm {
		// Granted someone a term at or past the planned claim between the
		// probe and now; claiming it again would be a second vote.
		claimTerm = n.term + 1
	}
	n.term = claimTerm
	myApplied, myAppliedTerm := n.applied, n.appliedTerm
	n.mu.Unlock()
	n.persistTerm(claimTerm)
	grants := 1 // self
	for _, c := range peers {
		if c.ID == self.ID {
			continue
		}
		f, ok := n.claim(c.ReplAddr, frame{
			Type: frameClaim, Term: claimTerm, Peer: self,
			Applied: myApplied, AppliedTerm: myAppliedTerm,
		})
		if !ok {
			continue
		}
		if f.Granted {
			grants++
			continue
		}
		if f.Role == RoleLeader && f.Term >= claimTerm {
			// A rival won a term at or past ours while we were claiming.
			return c.ReplAddr
		}
	}
	if grants >= majority {
		n.promote(claimTerm)
		return ""
	}
	n.logf("leadership claim for term %d denied: %d/%d grants (majority %d)",
		claimTerm, grants, len(peers), majority)
	return ""
}

// claim sends one leadership claim to addr and returns the response status.
func (n *Node) claim(addr string, f frame) (frame, bool) {
	if addr == "" {
		return frame{}, false
	}
	conn, err := n.dial(addr, n.cfg.ElectionTimeout/2)
	if err != nil {
		return frame{}, false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	if err := gob.NewEncoder(conn).Encode(&f); err != nil {
		return frame{}, false
	}
	var resp frame
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		return frame{}, false
	}
	return resp, true
}

// leaderHint probes the known membership for the current leader: the first
// peer that claims leadership, or the leader another peer points at. Used by
// a demoted ex-leader, which has no join target to fall back on.
func (n *Node) leaderHint() string {
	n.mu.Lock()
	peers := n.peerListLocked()
	self := n.selfPeerLocked()
	n.mu.Unlock()
	for _, p := range peers {
		if p.ID == self.ID {
			continue
		}
		f, ok := n.probe(p.ReplAddr)
		if !ok {
			continue
		}
		if f.Role == RoleLeader {
			return p.ReplAddr
		}
		// A hint naming THIS node is a peer's stale memory of our old
		// leadership — following it would mean dialing ourselves.
		if f.LeaderRepl != "" && f.LeaderRepl != self.ReplAddr {
			return f.LeaderRepl
		}
	}
	return ""
}

// probe asks the node at addr for its status frame (role, leader hint,
// applied index). ok is false when the node is unreachable — the distinction
// feeds the election majority gate. The probe carries this node's identity
// so a leader can count probes toward its majority lease.
func (n *Node) probe(addr string) (frame, bool) {
	if addr == "" {
		return frame{}, false
	}
	conn, err := n.dial(addr, n.cfg.ElectionTimeout/2)
	if err != nil {
		return frame{}, false
	}
	defer conn.Close()
	n.mu.Lock()
	self := n.selfPeerLocked()
	n.mu.Unlock()
	conn.SetDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	if err := gob.NewEncoder(conn).Encode(&frame{Type: frameProbe, Peer: self}); err != nil {
		return frame{}, false
	}
	var f frame
	if err := gob.NewDecoder(conn).Decode(&f); err != nil {
		return frame{}, false
	}
	return f, true
}
