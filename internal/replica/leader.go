package replica

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"osprey/internal/minisql"
)

// compactionFloor is how many acknowledged entries the leader retains beyond
// the followers' minimum position, so a join whose snapshot races a
// compaction still finds its entries and avoids a redundant re-bootstrap.
const compactionFloor = 256

// followerConn is the leader-side state of one connected follower. enc is
// the connection's single gob encoder (gob streams must not mix encoders);
// only the join/stream goroutine writes with it, so it needs no write lock.
type followerConn struct {
	peer  Peer
	conn  net.Conn
	enc   *gob.Encoder
	acked uint64 // highest applied index the follower acknowledged
	batch []byte // ship's reused frameEntries payload buffer

	// beatAt is the send time (unix nanos) of the heartbeat awaiting its
	// ack, 0 when none is outstanding; the ack reader turns the round trip
	// into the heartbeat-RTT histogram.
	beatAt atomic.Int64
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer conn.Close()
			n.handleConn(conn)
		}()
	}
}

// handleConn serves one inbound replication connection that opens with the
// protocol preamble: a probe or claim (answered and closed) or a follower
// join (snapshot + record stream until the connection dies).
func (n *Node) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	var pre [2]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	if pre != [2]byte{replMagic, replVersion} {
		n.met.malformed.Inc()
		n.logf("warning: closing connection from %s: preamble %#02x %#02x is not replication protocol version %d (mixed builds?)",
			conn.RemoteAddr(), pre[0], pre[1], replVersion)
		return
	}
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var f frame
	if err := dec.Decode(&f); err != nil {
		return
	}
	switch f.Type {
	case frameProbe:
		// A probe is contact: a follower checking on us during an election
		// counts toward the majority lease just like an ack does.
		n.touchPeer(f.Peer.ID)
		n.mu.Lock()
		st := frame{
			Type: frameStatus, Term: n.term, Role: n.role,
			Applied: n.applied, AppliedTerm: n.appliedTerm,
			LeaderID: n.leader.ID, LeaderRepl: n.leader.ReplAddr, LeaderSvc: n.leader.SvcAddr,
		}
		n.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
		enc.Encode(&st)
	case frameClaim:
		n.handleClaim(conn, enc, f)
	case frameJoin:
		n.handleJoin(conn, enc, dec, f)
	}
}

// handleClaim serves one leadership claim — the vote of the claim-based
// election (see promoteGated). A claim for a term strictly above this node's
// is granted when the candidate's log is at least as up-to-date as the local
// one, (appliedTerm, applied) compared lexicographically. Granting adopts
// the claimed term immediately, which is the teeth of the vote: a granting
// follower detaches from the leader it was streaming from (whose frames it
// will now reject as stale), and a granting leader steps down — so once a
// majority has granted, the previous leadership is structurally unable to
// commit another write. A denial for a log the candidate cannot match keeps
// the local term unchanged, leaving the term free for a better candidate to
// claim.
func (n *Node) handleClaim(conn net.Conn, enc *gob.Encoder, claim frame) {
	n.touchPeer(claim.Peer.ID)
	n.mu.Lock()
	logOK := claim.AppliedTerm > n.appliedTerm ||
		(claim.AppliedTerm == n.appliedTerm && claim.Applied >= n.applied)
	grant := !n.closed && claim.Term > n.term && logOK
	var stream net.Conn
	var finishDemote func(string)
	if grant {
		n.term = claim.Term
		// Stepping down (if leading) happens in the same critical section as
		// the term adoption: a leader that granted but kept its WAL live for
		// one more commit would stamp that write with the claimant's term.
		finishDemote, _ = n.demoteLocked()
		// The candidate is about to lead this term: remember it as the
		// leader so the follower loop heads straight for it, and sever the
		// stream to the one it replaces.
		n.leader = claim.Peer
		// And as a member: a granter still inside its own election probes
		// only its view, so a claimant missing from it (it joined through a
		// leader that died before a heartbeat brought the larger view here)
		// would be voted for and then never found.
		if _, known := n.peers[claim.Peer.ID]; !known {
			n.peers[claim.Peer.ID] = claim.Peer
			n.notifyPeersChangedLocked()
			n.persistViewLocked()
		}
		stream = n.stream
		if n.store != nil {
			if err := n.store.SetTerm(claim.Term); err != nil {
				n.logf("persisting granted term %d: %v", claim.Term, err)
			}
		}
	}
	resp := frame{
		Type: frameStatus, Term: n.term, Role: n.role,
		Applied: n.applied, AppliedTerm: n.appliedTerm, Granted: grant,
		LeaderID: n.leader.ID, LeaderRepl: n.leader.ReplAddr, LeaderSvc: n.leader.SvcAddr,
	}
	n.mu.Unlock()
	if grant {
		// Teardown strictly before the response: the grant must not be
		// observable while this node could still ack the old leadership.
		if finishDemote != nil {
			finishDemote(fmt.Sprintf("deposed: granted leadership claim for term %d by %s", claim.Term, claim.Peer.ID))
		} else if stream != nil {
			stream.Close()
		}
		n.logf("granted leadership claim for term %d to %s", claim.Term, claim.Peer.ID)
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	enc.Encode(&resp)
}

func (n *Node) handleJoin(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder, join frame) {
	n.mu.Lock()
	if !n.closed && n.role == RoleLeader && join.Term > n.term {
		// A joiner above our term means the cluster has voted past this
		// leadership (we missed the claim — partitioned away, or its
		// candidate died before finishing). Adopt the term and step down;
		// the re-election this forces is the only way the higher-term node
		// can ever rejoin, since it rejects our stale frames.
		n.term = join.Term
		if n.store != nil {
			if err := n.store.SetTerm(join.Term); err != nil {
				n.logf("persisting term %d: %v", join.Term, err)
			}
		}
		finish, _ := n.demoteLocked()
		resp := frame{Type: frameNotLeader, Term: n.term}
		n.mu.Unlock()
		if finish != nil {
			finish(fmt.Sprintf("superseded: join from %s carries term %d", join.Peer.ID, join.Term))
		}
		conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
		enc.Encode(&resp)
		return
	}
	if n.closed || n.role != RoleLeader {
		resp := frame{
			Type: frameNotLeader, Term: n.term,
			LeaderID: n.leader.ID, LeaderRepl: n.leader.ReplAddr, LeaderSvc: n.leader.SvcAddr,
		}
		if n.leader.ID == join.Peer.ID {
			// Our leader memory names the joiner itself — its old leadership,
			// now stale (it is knocking as a follower). Pointing it at itself
			// would send it chasing its own address.
			resp.LeaderID, resp.LeaderRepl, resp.LeaderSvc = "", "", ""
		}
		n.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
		enc.Encode(&resp)
		return
	}
	if _, known := n.peers[join.Peer.ID]; !known {
		n.peers[join.Peer.ID] = join.Peer
		n.notifyPeersChangedLocked()
		n.persistViewLocked()
	} else {
		n.peers[join.Peer.ID] = join.Peer
	}
	n.contact[join.Peer.ID] = time.Now()
	w := n.wal
	term := n.term
	n.mu.Unlock()

	// A follower resuming within this leader's own term whose position the
	// WAL still holds catches up incrementally — no re-bootstrap. "Within
	// this term" means both halves: the joiner adopted this term AND its
	// newest applied entry came from this leadership (AppliedTerm). The
	// second half is what makes resume safe after a contested failover: a
	// node whose term was bumped by a granted claim but whose log tail is
	// the OLD leader's (possibly longer than ours, possibly divergent) must
	// not graft our entries onto it. Its first attach goes through the
	// snapshot path, which establishes byte identity with this leader's
	// state; only then do later reconnects earn the incremental path. When
	// the in-memory WAL has compacted past the follower's position, a
	// durable leader reaches further back through its on-disk log (truncated
	// only at checkpoints) and serves the gap from disk. Anything else gets
	// a snapshot — streamed from the on-disk checkpoint file when one covers
	// it, avoiding a full in-memory serialize.
	resume := false
	var snap []byte
	var startIdx uint64
	var diskTail []minisql.Record
	if join.Term == term && join.AppliedTerm == term && join.From > 0 {
		if _, ok := w.RecordsSince(join.From); ok {
			resume = true
			startIdx = join.From
		} else if tail, last, ok := n.diskRecords(w, join.From); ok {
			resume = true
			startIdx = join.From
			diskTail = tail
			n.logf("follower %s resuming via disk log %d..%d", join.Peer.ID, join.From+1, last)
		}
	}
	if !resume {
		if n.store != nil {
			if path, cidx, ok := n.store.CheckpointFile(); ok {
				// File-streamed bootstrap: ship the checkpoint bytes as the
				// snapshot if the disk log still holds everything after it.
				if data, err := os.ReadFile(path); err == nil {
					if tail, _, ok := n.diskRecords(w, cidx); ok {
						snap, startIdx, diskTail = data, cidx, tail
						n.met.snapsFile.Inc()
					}
				}
			}
		}
		if snap == nil {
			var err error
			snap, startIdx, err = n.snapshotAt(w)
			if err != nil {
				n.logf("join %s: snapshot: %v", join.Peer.ID, err)
				return
			}
		}
	}

	fol := &followerConn{peer: join.Peer, conn: conn, enc: enc, acked: startIdx}
	n.mu.Lock()
	if n.closed || n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	if old := n.followers[join.Peer.ID]; old != nil {
		old.conn.Close()
	}
	n.followers[join.Peer.ID] = fol
	hello := frame{
		Type: frameSnapshot, Term: n.term, Role: RoleLeader,
		Snapshot: snap, SnapIndex: startIdx, Applied: n.applied,
		Peers:    n.peerListLocked(),
		LeaderID: n.leader.ID, LeaderRepl: n.leader.ReplAddr, LeaderSvc: n.leader.SvcAddr,
	}
	if resume {
		hello.Type = frameHeartbeat
		hello.Snapshot, hello.SnapIndex = nil, 0
	}
	n.mu.Unlock()
	defer n.dropFollower(join.Peer.ID, fol)

	// Snapshot transfer gets its own generous deadline, decoupled from the
	// failure-detection timings (see snapshotTimeout).
	conn.SetWriteDeadline(time.Now().Add(n.snapshotTimeout()))
	if err := enc.Encode(&hello); err != nil {
		return
	}
	if resume {
		n.logf("follower %s resumed from index %d", join.Peer.ID, startIdx)
	} else {
		n.met.snapsSent.Inc()
		n.logf("follower %s joined at index %d", join.Peer.ID, startIdx)
	}

	// Records served from the disk log (positions the in-memory WAL has
	// compacted away) ship before the live stream takes over. The follower's
	// apply path skips anything at or below its applied index, so overlap
	// with the memory stream is harmless.
	pos := startIdx
	if len(diskTail) > 0 {
		if err := n.ship(fol, w, term, diskTail, n.snapshotTimeout()); err != nil {
			return
		}
		pos = diskTail[len(diskTail)-1].Index
	}

	// Acks flow back on the same connection; reading them also detects a
	// dead follower, whose conn we close to unblock the sender below. The
	// first ack waits out the follower's snapshot restore; later ones are
	// heartbeat-paced. Each ack feeds the WAL's quorum commit watermark
	// (unblocking synchronous writes) and renews the majority lease.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer conn.Close()
		ackDeadline := n.snapshotTimeout()
		for {
			conn.SetReadDeadline(time.Now().Add(ackDeadline))
			ackDeadline = 4 * n.cfg.ElectionTimeout
			var ack frame
			if err := dec.Decode(&ack); err != nil {
				return
			}
			if ack.Type != frameAck {
				continue
			}
			n.mu.Lock()
			if cur := n.followers[join.Peer.ID]; cur == fol && ack.Applied > fol.acked {
				fol.acked = ack.Applied
			}
			n.contact[join.Peer.ID] = time.Now()
			n.mu.Unlock()
			if t := fol.beatAt.Swap(0); t != 0 {
				n.met.heartbeatRTT.Observe(float64(time.Now().UnixNano()-t) / 1e9)
			}
			w.Ack(join.Peer.ID, ack.Applied)
			// The ack may have advanced the quorum watermark: release the
			// gated watch transitions it now covers and wake the senders so
			// followers learn the new watermark without waiting a heartbeat.
			n.noteCommitted(w.Committed())
		}
	}()

	n.streamTo(fol, w, pos)
}

// diskRecords fetches the log records after `from` out of the durable store
// for a follower whose position the in-memory WAL has compacted away. The
// range is only usable when the live WAL still covers everything past the
// disk tail's last index — otherwise there is a gap neither side holds and
// the caller must fall back to a snapshot. Returns the tail, its last index,
// and whether the handoff is contiguous.
func (n *Node) diskRecords(w *minisql.WAL, from uint64) ([]minisql.Record, uint64, bool) {
	if n.store == nil {
		return nil, 0, false
	}
	tail, err := n.store.RecordsAfter(from)
	if err != nil {
		return nil, 0, false
	}
	last := from
	if len(tail) > 0 {
		last = tail[len(tail)-1].Index
	}
	if _, ok := w.RecordsSince(last); !ok {
		return nil, 0, false
	}
	return tail, last, true
}

// maxBatchEntries caps one frameEntries frame so a deeply lagged follower
// catches up in bounded frames instead of one giant allocation.
const maxBatchEntries = 256

// ship sends recs to one follower, as the bytes they are held in, in frames
// of at most maxBatchEntries records, each under its own write deadline.
func (n *Node) ship(fol *followerConn, w *minisql.WAL, term uint64, recs []minisql.Record, deadline time.Duration) error {
	for len(recs) > 0 {
		batch := recs[:min(len(recs), maxBatchEntries)]
		recs = recs[len(batch):]
		fol.batch = fol.batch[:0]
		for _, r := range batch {
			fol.batch = append(fol.batch, r.Data...)
		}
		fol.conn.SetWriteDeadline(time.Now().Add(deadline))
		if err := fol.enc.Encode(&frame{
			Type: frameEntries, Term: term, Committed: w.Committed(),
			Records: fol.batch, Last: batch[len(batch)-1].Index,
		}); err != nil {
			return err
		}
		n.met.batchEntries.Observe(float64(len(batch)))
	}
	return nil
}

// streamTo ships WAL records to one follower, interleaving heartbeats when
// the log is idle. Entries are group-committed: everything pending ships in
// one batched frame, which the follower acks once at its high-water mark —
// under concurrent write load N replication round trips collapse to ~1.
// Returns when the connection breaks, the node closes, or leadership is
// lost.
func (n *Node) streamTo(fol *followerConn, w *minisql.WAL, from uint64) {
	pos := from
	// Jittered heartbeat timer (not a fixed ticker): with many followers,
	// lockstep beats synchronize the cluster's write bursts and, after a
	// heal, its failure detectors. See Node.jitter.
	beat := time.NewTimer(n.jitter(n.cfg.Heartbeat))
	defer beat.Stop()
	for {
		if n.isClosed() || !n.IsLeader() {
			return
		}
		watch := w.Watch()
		commits := n.commitWatch()
		recs, ok := w.RecordsSince(pos)
		if !ok {
			// Compacted past this follower's position (only possible when it
			// lagged by more than the retention floor): force a re-join and
			// fresh snapshot by dropping the stream.
			n.logf("follower %s lagged past compaction at %d", fol.peer.ID, pos)
			return
		}
		if len(recs) > 0 {
			if err := n.ship(fol, w, n.Term(), recs, 2*n.cfg.ElectionTimeout); err != nil {
				return
			}
			pos = recs[len(recs)-1].Index
			continue
		}
		sendBeat := false
		select {
		case <-n.closeCh:
			return
		case <-watch:
			// Group commit: two or more writers blocked in quorum waits mean
			// more commits are landing right now, so hold this flush for the
			// group-commit deadline and ship them — and quorum-ack them — as
			// one frame. A single (serial) writer never waits: its entry
			// flushes immediately.
			if n.cfg.GroupCommitDelay > 0 && w.QuorumWaiters() > 1 {
				if !n.sleep(n.cfg.GroupCommitDelay) {
					return
				}
			}
		case <-n.peersWatch():
			sendBeat = true // membership changed: broadcast it immediately
		case <-commits:
			// The quorum watermark advanced with no new entries to carry it:
			// ship it in a heartbeat now so the follower's watch gate (and
			// its subscribers) do not idle until the next beat.
			sendBeat = true
		case <-beat.C:
			sendBeat = true
			beat.Reset(n.jitter(n.cfg.Heartbeat))
		}
		if sendBeat {
			n.mu.Lock()
			hb := frame{
				Type: frameHeartbeat, Term: n.term, Role: n.role, Applied: n.applied,
				Peers:    n.peerListLocked(),
				LeaderID: n.leader.ID, LeaderRepl: n.leader.ReplAddr, LeaderSvc: n.leader.SvcAddr,
			}
			n.mu.Unlock()
			hb.Committed = w.Committed()
			fol.conn.SetWriteDeadline(time.Now().Add(2 * n.cfg.ElectionTimeout))
			if err := fol.enc.Encode(&hb); err != nil {
				return
			}
			fol.beatAt.CompareAndSwap(0, time.Now().UnixNano())
		}
	}
}

func (n *Node) dropFollower(id string, fol *followerConn) {
	fol.conn.Close()
	n.mu.Lock()
	if n.followers[id] == fol {
		delete(n.followers, id)
	}
	n.mu.Unlock()
}

// leaderHousekeeping runs the leader's periodic duties on a heartbeat tick:
// the majority-lease check every tick (a partitioned leader must step down
// within ~LeaseTimeout, which is heartbeat-scale), and — on an
// election-timeout cadence — WAL compaction up to the slowest connected
// follower's acknowledged index (with a retention floor so racing joins
// don't immediately re-bootstrap) plus lease-based membership decay.
func (n *Node) leaderHousekeeping() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.Heartbeat)
	defer tick.Stop()
	slowEvery := int(n.cfg.ElectionTimeout / n.cfg.Heartbeat)
	if slowEvery < 1 {
		slowEvery = 1
	}
	for i := 0; ; i++ {
		select {
		case <-n.closeCh:
			return
		case <-tick.C:
		}
		if !n.IsLeader() {
			return
		}
		if n.leaseExpired() {
			n.demote("no ack or probe from a majority of peers within the lease window")
			return
		}
		if i%slowEvery != 0 {
			continue
		}
		n.mu.Lock()
		w := n.wal
		min := uint64(0)
		if w != nil {
			min = w.LastIndex()
			for _, f := range n.followers {
				if f.acked < min {
					min = f.acked
				}
			}
		}
		n.mu.Unlock()
		if w != nil && min > compactionFloor {
			w.Compact(min - compactionFloor)
		}
		n.decayPeers(w)
	}
}

// leaseExpired reports whether this leader has lost its majority lease: it
// holds the lease while it has heard (ack, join, or probe) from enough peers
// within LeaseTimeout that, counting itself, a majority of the membership is
// in contact. A single-node cluster is always in contact with itself. A
// freshly promoted leader gets a grace period (set in promote) so survivors
// have time to run their own failure detection and re-join.
func (n *Node) leaseExpired() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	if now.Before(n.leaseRef) {
		return false
	}
	inContact := 1 // self
	for id := range n.peers {
		if id == n.cfg.ID {
			continue
		}
		if t, ok := n.contact[id]; ok && now.Sub(t) <= n.cfg.LeaseTimeout {
			inContact++
		}
	}
	return inContact < len(n.peers)/2+1
}

// decayPeers drops membership entries with no live follower connection and
// no contact for PeerDecayTimeouts election timeouts, then broadcasts the
// shrunken view. Long-dead peers would otherwise consume a backoff slot in
// every future election. The decay window is clamped above the lease window
// so a partitioned minority leader demotes (lease) before it can shrink its
// membership into a fake majority (decay).
func (n *Node) decayPeers(w *minisql.WAL) {
	if n.cfg.PeerDecayTimeouts < 0 {
		return
	}
	window := time.Duration(n.cfg.PeerDecayTimeouts) * n.cfg.ElectionTimeout
	if min := 2 * n.cfg.LeaseTimeout; window < min {
		window = min
	}
	now := time.Now()
	var dropped []string
	n.mu.Lock()
	for id := range n.peers {
		if id == n.cfg.ID {
			continue
		}
		if _, connected := n.followers[id]; connected {
			continue
		}
		if t, ok := n.contact[id]; ok && now.Sub(t) <= window {
			continue
		}
		delete(n.peers, id)
		delete(n.contact, id)
		dropped = append(dropped, id)
	}
	if len(dropped) > 0 {
		n.notifyPeersChangedLocked()
		n.persistViewLocked()
	}
	n.mu.Unlock()
	for _, id := range dropped {
		if w != nil {
			w.Forget(id)
		}
		n.logf("decayed dead peer %s from membership", id)
	}
}
