package replica

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"osprey/internal/codec"
	"osprey/internal/minisql"
)

// followLoop streams from the leader the core says to follow, for the
// node's whole life: it idles while the node leads or elects, and is kicked
// when the leader to follow changes. A stream that ends is reported to the
// core, which decides whether to hunt for a leader or knock again; the same
// address is re-dialed only after a heartbeat.
func (n *Node) followLoop() {
	defer n.wg.Done()
	force := false
	for {
		target, join := n.target(force)
		if target == "" {
			select {
			case <-n.closeCh:
				return
			case <-n.kick:
			}
			continue
		}
		err := n.followOnce(target, join)
		if n.isClosed() {
			return
		}
		// A log gap or an entry that fails to apply means this replica's
		// state no longer extends the leader's log: re-join asking for a
		// snapshot. Resuming instead would re-ship the identical entry, fail
		// identically, and hot-loop forever.
		force = errors.Is(err, errLogGap) || errors.Is(err, errApply)
		if err != nil {
			n.logf("stream from %s ended: %v", target, err)
			n.step(input{ev: evDown, from: Peer{ReplAddr: target}}, nil)
		}
		if t, _ := n.target(force); t == target && !n.sleep(n.cfg.Heartbeat) {
			return
		}
	}
}

// target returns the replication address of the leader to stream from (""
// while leading or electing) and the join to open with.
func (n *Node) target(force bool) (string, frame) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st.role == RoleLeader || n.st.electing {
		return "", frame{}
	}
	return n.st.leader.ReplAddr, n.st.joinFrame(force)
}

// errLogGap marks a shipped entry that does not extend the applied prefix;
// errApply marks an entry whose replay failed. Both mean local state has
// diverged from the leader's log, and the follower re-joins with a forced
// snapshot to heal.
var (
	errLogGap = errors.New("replica: log gap")
	errApply  = errors.New("replica: entry apply failed")
)

// followOnce joins the leader at addr and runs its stream through the core
// until the connection fails (the error) or the node is redirected (nil).
func (n *Node) followOnce(addr string, join frame) error {
	conn, err := n.dial(addr, n.cfg.ElectionTimeout)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	n.stream = conn
	n.mu.Unlock()
	defer func() {
		conn.Close()
		n.mu.Lock()
		if n.stream == conn {
			n.stream = nil
		}
		n.mu.Unlock()
	}()

	w := frameWriter{w: conn}
	rd := newFrameReader(conn)
	conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	if err := w.write(&join); err != nil {
		return err
	}
	// The hello may carry a full database snapshot, so the first read gets
	// the bootstrap deadline; after that heartbeats arrive every
	// cfg.Heartbeat and a silent leader is dead.
	readDeadline := n.snapshotTimeout()
	var buf [4]output
	// One frame, one entry and one text arena for the whole stream: each
	// frame is handled before the next is read, and each entry applied
	// before the next decodes into it.
	var f frame
	var ent minisql.LogEntry
	var text codec.Text
	for {
		conn.SetReadDeadline(time.Now().Add(readDeadline))
		readDeadline = 2 * n.cfg.ElectionTimeout
		if err := rd.read(&f); err != nil {
			return err
		}
		if err := n.onStream(&f, &ent, &text, &w, conn, buf[:0]); err != nil || f.Type == frameNotLeader {
			return err
		}
	}
}

// onStream steps one frame from the leader and carries out what the core
// decided: drop the stream, install or apply — then step evApplied, which
// decides the ack — release watch transitions, and ack.
func (n *Node) onStream(f *frame, ent *minisql.LogEntry, text *codec.Text, w *frameWriter, conn net.Conn, buf []output) error {
	for in := (input{ev: evFrame, f: *f}); in.ev != 0; {
		out, err := n.step(in, buf)
		if err != nil {
			return err
		}
		if in.ev == evFrame && f.Type != frameNotLeader && (len(out) == 0 || out[0].do != doDrop) {
			n.noteLeaderFrame(f)
		}
		in.ev = 0
		for _, o := range out {
			switch o.do {
			case doDrop:
				return errors.New(o.why)
			case doInstall:
				if err := n.install(f); err != nil {
					return err
				}
				in.ev = evApplied
			case doApply:
				if err := n.applyRecords(ent, text, f.Records); err != nil {
					return err
				}
				in.ev = evApplied
			case doCommit:
				// The leader's quorum watermark: release the watch transitions
				// it covers (applied entries buffered by the gate) before acking.
				n.db.AdvanceWatch(o.f.Committed)
			case doAck:
				n.attached.Store(true)
				if err := n.ack(w, conn, o.f.Applied); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ack reports this follower's applied high-water mark back to the leader.
// On a durable node with fsync enabled the ack waits until that index is
// actually on disk first — ack-after-fsync ordering, so the leader's quorum
// watermark only ever counts follower state that survives a crash. One wait
// covers a whole batched entries frame, riding the same group-commit
// economics as the leader's fsync. A follower whose disk cannot keep its
// promise drops the stream instead of lying.
func (n *Node) ack(w *frameWriter, conn net.Conn, applied uint64) error {
	if n.store != nil && n.store.Fsync() {
		if err := n.store.WaitDurable(applied, 4*n.cfg.ElectionTimeout); err != nil {
			return fmt.Errorf("replica: durability wait before ack of %d: %w", applied, err)
		}
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.ElectionTimeout))
	return w.write(&frame{Type: frameAck, Applied: applied})
}

// install bootstraps the local database from the leader's snapshot frame.
// The new applied index is published by the evApplied step that follows,
// together with the applied term that makes it resumable.
func (n *Node) install(f *frame) error {
	if err := n.db.Restore(bytes.NewReader(f.Snapshot)); err != nil {
		return fmt.Errorf("replica: restoring snapshot: %w", err)
	}
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
	n.attached.Store(true)
	n.met.snapsInstall.Inc()
	n.logf("bootstrapped from snapshot at index %d (term %d)", f.SnapIndex, f.Term)
	return nil
}

// applyOne replays one shipped entry and persists the record it came in;
// duplicates (replays after a reconnect) are skipped, gaps force a re-join
// (and fresh snapshot).
func (n *Node) applyOne(ent *minisql.LogEntry, rec []byte) error {
	cur := n.Applied()
	if ent.Index <= cur {
		return nil
	}
	if ent.Index != cur+1 {
		return fmt.Errorf("%w: have %d, got %d", errLogGap, cur, ent.Index)
	}
	if err := n.eng.ApplyEntry(*ent); err != nil {
		return fmt.Errorf("%w: %v", errApply, err)
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
	return nil
}

// applyRecords replays one group-committed batch in order. A record that
// fails minisql's CRC/structure check is a damaged stream, not a diverged
// log: the error drops the connection before any ack and the re-join resumes
// from the last applied entry, no forced snapshot. Each entry advances the
// applied index individually, so a crash mid-batch re-joins from exactly the
// last applied entry and the leader re-ships the rest; the single ack that
// follows carries the batch high-water mark, advancing the leader's quorum
// watermark for every entry at once. Each record decodes into ent, whose
// capacity the stream keeps, and carves its text from the stream's arena:
// ApplyEntry holds on to no argument (rows copy their values) and no
// statement.
func (n *Node) applyRecords(ent *minisql.LogEntry, text *codec.Text, b []byte) error {
	for len(b) > 0 {
		size, err := n.eng.DecodeRecordInto(ent, text, b)
		if err != nil {
			return fmt.Errorf("replica: shipped record after index %d: %w", n.Applied(), err)
		}
		if err := n.applyOne(ent, b[:size]); err != nil {
			return err
		}
		b = b[size:]
	}
	return nil
}

// request sends one probe or claim of an election round and steps the
// reply, or the failure that makes the peer count as unreachable.
func (n *Node) request(o output) {
	defer n.wg.Done()
	in := input{ev: evDown, from: o.to, round: o.round}
	if conn, err := n.dial(o.to.ReplAddr, n.cfg.ElectionTimeout/2); err == nil {
		conn.SetDeadline(time.Now().Add(n.cfg.ElectionTimeout))
		w := frameWriter{w: conn}
		if w.write(&o.f) == nil && newFrameReader(conn).read(&in.f) == nil {
			in.ev = evReply
		}
		conn.Close()
	}
	n.step(in, nil)
}
