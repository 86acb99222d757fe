package replica

import (
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"osprey/internal/codec"
	"osprey/internal/minisql"
	"osprey/internal/wait"
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
			w := n.frameWriter(conn)
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
// heartbeat hello); it happens when the log still reaches the joiner's
// position. Anything else gets a snapshot of the live engine, written onto
// the connection as chunk frames (followerConn.Write).
func (n *Node) serveFollower(conn net.Conn, rd *frameReader, join, hello frame) {
	term, pos := hello.Term, join.From
	fol := &followerConn{peer: join.Peer, conn: conn, w: n.frameWriter(conn), timeout: 2 * n.cfg.ElectionTimeout}
	if hello.Type == frameHeartbeat && n.log.Reaches(pos) {
		fol.acked.Store(pos) // a bootstrapping follower holds nothing until it acks the install
	} else {
		hello.Type = frameSnapshot
	}
	n.mu.Lock()
	if n.closed || !n.leadingLocked(term) {
		n.mu.Unlock()
		return
	}
	if old := n.followers[join.Peer.ID]; old != nil {
		old.conn.Close()
	}
	n.followers[join.Peer.ID] = fol
	hello.Applied, hello.Committed = n.st.applied, n.committedLocked(term)
	n.mu.Unlock()
	defer n.dropFollower(join.Peer.ID, fol)

	// Acks flow back on the same connection; reading them also detects a
	// dead follower, whose conn we close to unblock the sender below. Each
	// ack is stepped as this leadership's — it renews the majority lease and
	// may raise the quorum watermark, which wakes the synchronous writers and
	// the senders — and is progress: it moves the write deadline on (see
	// leaderStream.Read). An ack past the log's end acks what this leader
	// never shipped: it would commit entries no follower holds.
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
			if last := n.log.LastIndex(); ack.Applied > last {
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
				n.db.AdvanceWatch(n.committed(term))
			}
		}
	}()

	if hello.Type == frameHeartbeat {
		if fol.send(&hello) != nil {
			return
		}
		n.logf("follower %s resumed from index %d", join.Peer.ID, pos)
	} else {
		// The live engine at the log index read under the lock hold that
		// captures it, exact under any write load: log appends take that
		// lock too (the commit hook).
		fol.hello = &hello
		err := n.eng.SnapshotWith(fol, func() { hello.SnapIndex = n.log.LastIndex() })
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
	n.streamTo(fol, term, pos)
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

// ship sends recs to one follower, as the bytes they are held in, in
// entries frames that close at codec.KeepBytes of records (a larger record
// goes alone), each under the per-frame deadline.
func (n *Node) ship(fol *followerConn, term uint64, recs []minisql.Record) error {
	for len(recs) > 0 {
		fol.batch = append(fol.batch[:0], recs[0].Data...)
		k := 1
		for ; k < len(recs) && len(fol.batch)+len(recs[k].Data) <= codec.KeepBytes; k++ {
			fol.batch = append(fol.batch, recs[k].Data...)
		}
		if err := fol.send(&frame{
			Type: frameEntries, Term: term, Committed: n.committed(term),
			Records: fol.batch, Last: recs[k-1].Index,
		}); err != nil {
			return err
		}
		n.met.batchEntries.Observe(float64(k))
		recs = recs[k:]
	}
	return nil
}

// streamTo ships the log's records after pos to one follower — from a
// durable leader's segments until it reaches the window — interleaving
// heartbeats when the log is idle. Entries are group-committed: everything
// pending ships in one batched frame, which the follower acks once at its
// high-water mark — under concurrent write load N replication round trips
// collapse to ~1. Returns when the connection breaks, the node closes, or
// the leadership of term ends.
func (n *Node) streamTo(fol *followerConn, term, pos uint64) {
	// Jittered heartbeat timer (not a fixed ticker): with many followers,
	// lockstep beats synchronize the cluster's write bursts and, after a
	// heal, its failure detectors.
	beat := wait.Timer(jitter(n.cfg.Heartbeat, rand.Uint64()))
	defer wait.Release(beat)
	for {
		n.mu.Lock()
		leading := n.leadingLocked(term)
		n.mu.Unlock()
		if n.isClosed() || !leading {
			return
		}
		watch := n.log.Watch()
		commits, peers := n.commits.Wait(), n.peers.Wait()
		recs, ok := n.log.RecordsSince(fol.recs[:0], pos)
		fol.recs = recs
		if !ok {
			// The follower lagged past what the log retains: drop the stream,
			// and the re-join gets a snapshot.
			n.logf("follower %s lagged past compaction at %d", fol.peer.ID, pos)
			return
		}
		if len(recs) > 0 {
			err := n.ship(fol, term, recs)
			pos = recs[len(recs)-1].Index
			clear(recs) // records read from segments pin the files' bytes
			if err != nil {
				return
			}
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
			if n.quorumWaiters.Load() > 1 && !n.sleep(n.groupCommit) {
				return
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
			hb, leading := n.st.beat(), n.leadingLocked(term)
			hb.Committed = n.committedLocked(term)
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

// compact drops a leader's window records below the slowest connected
// follower's acknowledged index, less a retention floor so racing joins
// don't immediately re-bootstrap.
func (n *Node) compact() {
	n.mu.Lock()
	floor := n.log.LastIndex()
	for _, f := range n.followers {
		floor = min(floor, f.acked.Load())
	}
	n.mu.Unlock()
	if floor > compactionFloor { // a no-op off the leader: no window to trim
		n.log.Compact(floor - compactionFloor)
	}
}
