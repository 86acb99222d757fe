package replica

import (
	"errors"
	"fmt"
	"io"
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

	s := &leaderStream{conn: conn, w: n.frameWriter(conn), rd: newFrameReader(conn), elect: n.cfg.ElectionTimeout}
	if err := s.write(&join); err != nil {
		return err
	}
	// A live leader beats every cfg.Heartbeat and writes a snapshot a chunk
	// at a time: a frame that misses the per-frame deadline means it is dead.
	var buf [4]output
	var f frame
	for {
		if err := s.next(&f); err != nil {
			return err
		}
		if err := n.onStream(&f, s, buf[:0]); err != nil || f.Type == frameNotLeader {
			return err
		}
	}
}

// leaderStream is a follower's end of one connection to its leader. Its
// entry and text arena serve the whole stream: each frame is handled before
// the next is read, each entry applied before the next decodes into it.
type leaderStream struct {
	conn  net.Conn
	w     frameWriter
	rd    *frameReader
	elect time.Duration // the node's ElectionTimeout
	ent   minisql.LogEntry
	text  codec.Text
	chunk frame  // the chunk frame Read is reading
	rest  []byte // what Read has not yet returned of it
}

// next reads the stream's next frame within the per-frame deadline.
func (s *leaderStream) next(f *frame) error {
	s.conn.SetReadDeadline(time.Now().Add(2 * s.elect))
	return s.rd.read(f)
}

func (s *leaderStream) write(f *frame) error {
	s.conn.SetWriteDeadline(time.Now().Add(s.elect))
	return s.w.write(f)
}

// Read reads a bootstrap's checkpoint from the chunk frames after its hello,
// to the end frame. It acks each frame it takes, with no index: progress,
// which renews the leader's lease and moves on its write deadline, since its
// chunks queue behind a restore slower than its encoding.
func (s *leaderStream) Read(p []byte) (int, error) {
	for len(s.rest) == 0 {
		if s.chunk.Type == frameSnapEnd {
			return 0, io.EOF
		}
		if err := s.next(&s.chunk); err != nil {
			return 0, err
		}
		if s.chunk.Type != frameChunk && s.chunk.Type != frameSnapEnd {
			return 0, fmt.Errorf("%w: frame type %d inside a snapshot", errBadFrame, s.chunk.Type)
		}
		if err := s.write(&frame{Type: frameAck}); err != nil {
			return 0, err
		}
		s.rest = s.chunk.Records
	}
	k := copy(p, s.rest)
	s.rest = s.rest[k:]
	return k, nil
}

// onStream steps one frame from the leader and carries out what the core
// decided: drop the stream, install or apply — then step evApplied, which
// decides the ack — release watch transitions, and ack.
func (n *Node) onStream(f *frame, s *leaderStream, buf []output) error {
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
				if err := n.install(f, s); err != nil {
					return err
				}
				in.ev = evApplied
			case doApply:
				if err := n.applyRecords(&s.ent, &s.text, f.Records); err != nil {
					return err
				}
				in.ev = evApplied
			case doCommit:
				// The leader's quorum watermark: release the watch transitions
				// it covers (applied entries buffered by the gate) before acking.
				n.db.AdvanceWatch(o.f.Committed)
			case doAck:
				n.attached.Store(true)
				if err := n.ack(s, o.f.Applied); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ack reports this follower's applied high-water mark back to the leader.
// On a durable node the ack waits until that index is durable first (with
// fsync, ack-after-fsync ordering), so the leader's quorum watermark only
// ever counts follower state that survives a crash. One wait covers a whole
// batched entries frame, riding the same group-commit economics as the
// leader's fsync. A follower whose disk refused an entry or cannot keep its
// promise drops the stream instead of lying.
func (n *Node) ack(s *leaderStream, applied uint64) error {
	if n.store != nil {
		if err := n.store.WaitDurable(applied, 4*n.cfg.ElectionTimeout); err != nil {
			return fmt.Errorf("replica: durability wait before ack of %d: %w", applied, err)
		}
	}
	return s.write(&frame{Type: frameAck, Applied: applied})
}

// install bootstraps the local database from the snapshot whose hello is f,
// restoring from the stream's chunks as they arrive (on a durable node the
// store tees them into its checkpoint, and a restart recovers from there):
// a broken stream changes nothing. The new applied index is published by
// the evApplied step that follows, together with the applied term that
// makes it resumable.
func (n *Node) install(f *frame, s *leaderStream) error {
	err := n.log.InstallSnapshot(s, f.SnapIndex, func(r io.Reader) error { return n.db.Restore(r, f.SnapIndex) })
	if err != nil {
		return fmt.Errorf("replica: installing snapshot at %d: %w", f.SnapIndex, err)
	}
	n.attached.Store(true)
	n.met.snapsInstall.Inc()
	n.logf("bootstrapped from snapshot at index %d (term %d)", f.SnapIndex, f.Term)
	return nil
}

// applyOne replays one shipped entry and appends the record it came in to the
// node's log; duplicates (replays after a reconnect) are skipped, gaps force
// a re-join (and fresh snapshot).
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
	// As the leader's bytes: a durable log persists them, so a restarted
	// follower re-joins from its own position. An append the disk refused
	// leaves a sticky error that fails the ack's durability wait.
	if err := n.log.AppendRecord(minisql.Record{Index: ent.Index, Data: rec}); err != nil {
		n.logf("disk log append %d: %v", ent.Index, err)
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
		w := n.frameWriter(conn)
		if w.write(&o.f) == nil && newFrameReader(conn).read(&in.f) == nil {
			in.ev = evReply
		}
		conn.Close()
	}
	n.step(in, nil)
}
