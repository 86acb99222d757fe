package replica

import (
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"osprey/internal/codec"
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
	peer    Peer
	conn    net.Conn
	w       frameWriter
	timeout time.Duration    // the per-frame write deadline
	hello   *frame           // a snapshot hello, sent at the snapshot's first Write
	acked   atomic.Uint64    // highest applied index the follower acknowledged
	batch   []byte           // ship's reused frameEntries payload buffer
	recs    []minisql.Record // streamTo's reused RecordsSince window

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
// join (hello, snapshot or resume, then the record stream until the
// connection dies).
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
// checkpoints) reaches back to it. Anything else gets a snapshot of the live
// engine, written onto the connection as chunk frames (followerConn.Write).
func (n *Node) serveFollower(conn net.Conn, rd *frameReader, join, hello frame) {
	n.mu.Lock()
	w := n.wal
	n.mu.Unlock()
	if w == nil {
		return
	}
	pos := join.From
	var diskTail []minisql.Record
	if hello.Type == frameHeartbeat {
		if _, ok := w.RecordsSince(nil, pos); !ok {
			if diskTail, ok = n.diskRecords(w, pos); !ok {
				hello.Type = frameSnapshot
			}
		}
	}

	fol := &followerConn{peer: join.Peer, conn: conn, w: frameWriter{w: conn}, timeout: 2 * n.cfg.ElectionTimeout}
	if hello.Type == frameHeartbeat {
		fol.acked.Store(pos) // a bootstrapping follower holds nothing until it acks the install
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
	hello.Applied, hello.Committed = n.st.applied, n.committedLocked(w)
	n.mu.Unlock()
	defer n.dropFollower(join.Peer.ID, fol)

	// Acks flow back on the same connection; reading them also detects a
	// dead follower, whose conn we close to unblock the sender below. Each
	// ack is stepped as this leadership's — it renews the majority lease and
	// may raise the quorum watermark, which wakes the synchronous writers and
	// the senders — and is progress: it moves the write deadline on (see
	// leaderStream.Read). An ack past the log's end acks what this leader
	// never shipped: it would commit entries no follower holds.
	term := hello.Term
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer conn.Close()
		var ack frame
		var buf [2]output
		for {
			conn.SetReadDeadline(time.Now().Add(4 * n.cfg.ElectionTimeout))
			if err := rd.read(&ack); err != nil {
				return
			}
			if ack.Type != frameAck {
				continue
			}
			if last := w.LastIndex(); ack.Applied > last {
				n.met.malformed.Inc()
				n.logf("warning: closing stream of follower %s at %s: ack of index %d past the log's end %d",
					join.Peer.ID, conn.RemoteAddr(), ack.Applied, last)
				return
			}
			conn.SetWriteDeadline(time.Now().Add(fol.timeout))
			ack.Term = term
			n.step(input{ev: evFrame, f: ack, from: join.Peer}, buf[:0])
			if ack.Applied > fol.acked.Load() {
				fol.acked.Store(ack.Applied)
			}
			if t := fol.beatAt.Swap(0); t != 0 {
				n.met.heartbeatRTT.Observe(float64(time.Now().UnixNano()-t) / 1e9)
			}
			if n.cfg.WriteQuorum > 0 {
				// Release the gated watch transitions the watermark covers,
				// including any an earlier ack committed before the leader's
				// own disk held them.
				n.db.AdvanceWatch(n.committed(w))
			}
		}
	}()

	if hello.Type == frameHeartbeat {
		// Records served from the disk log (positions the in-memory WAL has
		// compacted away) ship before the live stream takes over. The
		// follower's apply path skips anything at or below its applied index,
		// so overlap with the memory stream is harmless.
		if fol.send(&hello) != nil || n.ship(fol, w, hello.Term, diskTail) != nil {
			return
		}
		n.logf("follower %s resumed from index %d (%d records from the disk log)", join.Peer.ID, pos, len(diskTail))
		if len(diskTail) > 0 {
			pos = diskTail[len(diskTail)-1].Index
		}
	} else {
		// The live engine at the log index read under the lock hold that
		// captures it, exact under any write load: WAL appends take that
		// lock too (the commit hook).
		fol.hello = &hello
		err := n.eng.SnapshotWith(fol, func() { hello.SnapIndex = w.LastIndex() })
		if err == nil {
			err = fol.send(&frame{Type: frameSnapEnd})
		}
		if err != nil {
			n.logf("join %s: snapshot: %v", join.Peer.ID, err)
			return
		}
		pos = hello.SnapIndex
		n.met.snapsSent.Inc()
		n.logf("follower %s joined at index %d", join.Peer.ID, pos)
	}
	n.streamTo(fol, w, hello.Term, pos)
}

// send writes one frame to the follower under the per-frame deadline.
func (fol *followerConn) send(f *frame) error {
	fol.conn.SetWriteDeadline(time.Now().Add(fol.timeout))
	return fol.w.write(f)
}

// Write sends a snapshot as the checkpoint writer hands it over, whole
// records per write: the pending hello first, then each write as one chunk.
func (fol *followerConn) Write(p []byte) (int, error) {
	if fol.hello != nil {
		if err := fol.send(fol.hello); err != nil {
			return 0, err
		}
		fol.hello = nil
	}
	if err := fol.send(&frame{Type: frameChunk, Records: p}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// diskRecords fetches the log records after `from` out of the durable store
// for a follower whose position the in-memory WAL has compacted away. The
// range is only usable (ok) when the live WAL still covers everything past
// the disk tail's last index — otherwise there is a gap neither side holds
// and the caller must fall back to a snapshot.
func (n *Node) diskRecords(w *minisql.WAL, from uint64) (tail []minisql.Record, ok bool) {
	if n.store == nil {
		return nil, false
	}
	tail, err := n.store.RecordsAfter(from)
	last := from
	if len(tail) > 0 {
		last = tail[len(tail)-1].Index
	}
	_, ok = w.RecordsSince(nil, last)
	return tail, ok && err == nil
}

// ship sends recs to one follower, as the bytes they are held in, in
// entries frames that close at codec.KeepBytes of records (a larger record
// goes alone), each under the per-frame deadline.
func (n *Node) ship(fol *followerConn, w *minisql.WAL, term uint64, recs []minisql.Record) error {
	for len(recs) > 0 {
		fol.batch = append(fol.batch[:0], recs[0].Data...)
		k := 1
		for ; k < len(recs) && len(fol.batch)+len(recs[k].Data) <= codec.KeepBytes; k++ {
			fol.batch = append(fol.batch, recs[k].Data...)
		}
		if err := fol.send(&frame{
			Type: frameEntries, Term: term, Committed: n.committed(w),
			Records: fol.batch, Last: recs[k-1].Index,
		}); err != nil {
			return err
		}
		n.met.batchEntries.Observe(float64(k))
		recs = recs[k:]
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
			if err := n.ship(fol, w, term, recs); err != nil {
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
			if n.cfg.GroupCommitDelay > 0 && n.quorumWaiters.Load() > 1 {
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
			hb.Committed = n.committedLocked(w)
			n.mu.Unlock()
			if !leading {
				return // a beat of the state after a demotion would name no leader
			}
			if err := fol.send(&hb); err != nil {
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
