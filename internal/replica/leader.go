package replica

import (
	"io"
	"math/rand"
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

// followerConn is the leader-side state of one connected follower. Only the
// join/stream goroutine writes to the connection, through w, so it needs no
// write lock.
type followerConn struct {
	peer  Peer
	conn  net.Conn
	w     frameWriter
	acked atomic.Uint64    // highest applied index the follower acknowledged
	batch []byte           // ship's reused frameEntries payload buffer
	recs  []minisql.Record // streamTo's reused RecordsSince window

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
	rd := newFrameReader(conn)
	var f frame
	if err := rd.read(&f); err != nil {
		return
	}
	out, err := n.step(input{ev: evFrame, f: f}, nil)
	if err != nil && f.Type == frameClaim {
		// The grant could not reach disk, so it was never made: refuse.
		n.logf("refusing leadership claim for term %d by %s: %v", f.Term, f.Peer.ID, err)
		n.mu.Lock()
		out = []output{{do: doReply, f: n.st.status(false)}}
		n.mu.Unlock()
	}
	for _, o := range out {
		switch o.do {
		case doReply:
			conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
			w := frameWriter{w: conn}
			w.write(&o.f) // the connection closes either way; a lost reply is a failed request
			return
		case doHello:
			n.serveFollower(conn, rd, f, o.f)
			return
		}
	}
}

// serveFollower answers an admitted join with its hello and streams the log
// to the follower until the connection dies. The core allowed a resume (a
// heartbeat hello); it happens when the in-memory WAL still holds the
// joiner's position or, on a durable leader, the disk log (truncated only at
// checkpoints) reaches back to it. Anything else gets a snapshot — streamed
// from the on-disk checkpoint file when one covers it, avoiding a full
// in-memory serialize.
func (n *Node) serveFollower(conn net.Conn, rd *frameReader, join, hello frame) {
	n.mu.Lock()
	w, walStart := n.wal, n.walStart
	n.mu.Unlock()
	if w == nil {
		return
	}
	startIdx := join.From
	var diskTail []minisql.Record
	if hello.Type == frameHeartbeat {
		if _, ok := w.RecordsSince(nil, join.From); !ok {
			if tail, last, ok := n.diskRecords(w, join.From); ok {
				diskTail = tail
				n.logf("follower %s resuming via disk log %d..%d", join.Peer.ID, join.From+1, last)
			} else {
				hello.Type = frameSnapshot
			}
		}
	}
	if hello.Type == frameSnapshot {
		diskTail = nil
		if n.store != nil {
			// File-streamed bootstrap: ship the checkpoint bytes as the
			// snapshot if the disk log still holds everything after it —
			// and only a checkpoint taken since this leadership began. The
			// joiner takes this leader's term as its applied term, a promise
			// that it holds this leader's log as of its election; from an
			// older checkpoint, a stream that broke before the tail landed
			// would leave it claiming the term without entries committed
			// under earlier leaderships, and winning votes with that claim.
			if path, cidx, ok := n.store.CheckpointFile(); ok && cidx >= walStart {
				if data, err := os.ReadFile(path); err == nil {
					if tail, _, ok := n.diskRecords(w, cidx); ok {
						hello.Snapshot, startIdx, diskTail = data, cidx, tail
						n.met.snapsFile.Inc()
					}
				}
			}
		}
		if hello.Snapshot == nil {
			var err error
			if hello.Snapshot, startIdx, err = n.snapshotAt(w); err != nil {
				n.logf("join %s: snapshot: %v", join.Peer.ID, err)
				return
			}
		}
		hello.SnapIndex = startIdx
	}

	fol := &followerConn{peer: join.Peer, conn: conn, w: frameWriter{w: conn}}
	if hello.Type == frameHeartbeat {
		fol.acked.Store(startIdx) // a bootstrapping follower holds nothing until it acks the install
	}
	n.mu.Lock()
	if n.closed || n.wal != w {
		n.mu.Unlock()
		return
	}
	if old := n.followers[join.Peer.ID]; old != nil {
		old.conn.Close()
	}
	n.followers[join.Peer.ID] = fol
	hello.Applied, hello.Committed = n.st.applied, n.committed(w)
	n.mu.Unlock()
	defer n.dropFollower(join.Peer.ID, fol)

	// Snapshot transfer gets its own generous deadline, decoupled from the
	// failure-detection timings (see snapshotTimeout).
	conn.SetWriteDeadline(time.Now().Add(n.snapshotTimeout()))
	if err := fol.w.write(&hello); err != nil {
		return
	}
	if hello.Type == frameHeartbeat {
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
		if err := n.ship(fol, w, hello.Term, diskTail, n.snapshotTimeout()); err != nil {
			return
		}
		pos = diskTail[len(diskTail)-1].Index
	}

	// Acks flow back on the same connection; reading them also detects a
	// dead follower, whose conn we close to unblock the sender below. The
	// first ack waits out the follower's snapshot restore; later ones are
	// heartbeat-paced. Each ack renews the majority lease (in the core) and
	// feeds the WAL's quorum commit watermark, unblocking synchronous writes.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer conn.Close()
		ackDeadline := n.snapshotTimeout()
		var ack frame
		for {
			conn.SetReadDeadline(time.Now().Add(ackDeadline))
			ackDeadline = 4 * n.cfg.ElectionTimeout
			if err := rd.read(&ack); err != nil {
				return
			}
			if ack.Type != frameAck {
				continue
			}
			n.step(input{ev: evFrame, f: ack, from: join.Peer}, nil)
			if ack.Applied > fol.acked.Load() {
				fol.acked.Store(ack.Applied)
			}
			if t := fol.beatAt.Swap(0); t != 0 {
				n.met.heartbeatRTT.Observe(float64(time.Now().UnixNano()-t) / 1e9)
			}
			w.Ack(join.Peer.ID, ack.Applied)
			// The ack may have advanced the quorum watermark: release the
			// gated watch transitions it now covers and wake the senders so
			// followers learn the new watermark without waiting a heartbeat.
			n.noteCommitted(n.committed(w))
		}
	}()

	n.streamTo(fol, w, hello.Term, pos)
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
	if _, ok := w.RecordsSince(nil, last); !ok {
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
		if err := fol.w.write(&frame{
			Type: frameEntries, Term: term, Committed: n.committed(w),
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
// Returns when the connection breaks, the node closes, or the leadership of
// term ends.
func (n *Node) streamTo(fol *followerConn, w *minisql.WAL, term uint64, from uint64) {
	pos := from
	// Jittered heartbeat timer (not a fixed ticker): with many followers,
	// lockstep beats synchronize the cluster's write bursts and, after a
	// heal, its failure detectors.
	beat := time.NewTimer(jitter(n.cfg.Heartbeat, rand.Uint64()))
	defer beat.Stop()
	for {
		n.mu.Lock()
		leading := n.wal == w
		n.mu.Unlock()
		if n.isClosed() || !leading {
			return
		}
		watch := w.Watch()
		commits, peers := n.watches()
		recs, ok := w.RecordsSince(fol.recs[:0], pos)
		fol.recs = recs
		if !ok {
			// Compacted past this follower's position (only possible when it
			// lagged by more than the retention floor): force a re-join and
			// fresh snapshot by dropping the stream.
			n.logf("follower %s lagged past compaction at %d", fol.peer.ID, pos)
			return
		}
		if len(recs) > 0 {
			if err := n.ship(fol, w, term, recs, 2*n.cfg.ElectionTimeout); err != nil {
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
		case <-peers:
			sendBeat = true // membership changed: broadcast it immediately
		case <-commits:
			// The quorum watermark advanced with no new entries to carry it:
			// ship it in a heartbeat now so the follower's watch gate (and
			// its subscribers) do not idle until the next beat.
			sendBeat = true
		case <-beat.C:
			sendBeat = true
			beat.Reset(jitter(n.cfg.Heartbeat, rand.Uint64()))
		}
		if sendBeat {
			n.mu.Lock()
			hb, leading := n.st.beat(), n.wal == w
			n.mu.Unlock()
			if !leading {
				return // a beat of the state after a demotion would name no leader
			}
			hb.Committed = n.committed(w)
			fol.conn.SetWriteDeadline(time.Now().Add(2 * n.cfg.ElectionTimeout))
			if err := fol.w.write(&hb); err != nil {
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

// compact drops a leader's WAL records below the slowest connected
// follower's acknowledged index, less a retention floor so racing joins
// don't immediately re-bootstrap.
func (n *Node) compact() {
	n.mu.Lock()
	w := n.wal
	floor := uint64(0)
	if w != nil {
		floor = w.LastIndex()
		for _, f := range n.followers {
			floor = min(floor, f.acked.Load())
		}
	}
	n.mu.Unlock()
	if w != nil && floor > compactionFloor {
		w.Compact(floor - compactionFloor)
	}
}
