package minisql

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"

	"osprey/internal/wait"
)

// Stmt is one mutating SQL statement with its bound positional arguments,
// exactly as executed on the engine; a set-based write (Tx.RunRows) is one
// Stmt whose Args hold several argument rows back to back. Replaying the same
// Stmt sequence against an engine in the same starting state is
// deterministic: every dynamic value (timestamps, payloads) arrives through
// Args, and AUTOINCREMENT keys are a pure function of prior statements.
type Stmt struct {
	SQL  string
	Args []Value

	// prep is the handle that executed the statement, or replayed it
	// (ApplyEntry), on this engine: in memory only, never encoded.
	prep *Prepared
}

// Prepared returns the handle that executed s, or replayed it through
// ApplyEntry, on the engine that reports it — what a commit observer
// recognises a statement by. It is nil for a Stmt that has not run.
func (s *Stmt) Prepared() *Prepared { return s.prep }

// LogEntry is one committed unit of work: a single statement for autocommit
// execs, or every mutating statement of a transaction. Entries carry a
// monotonically increasing index assigned by the node's Log, and are stored
// and shipped as Records.
type LogEntry struct {
	Index uint64
	Stmts []Stmt
}

// CommitHook observes every committed mutating statement batch. It is invoked
// synchronously while the engine lock is held, so implementations must be
// fast and must not call back into the engine. The hook returns the log index
// it assigned to the batch (0 when it did not record one); the engine hands
// that index back to the committing caller through TxLogged (and records it
// as LastLogged), which is what gives every write a commit token identifying
// its own WAL entry.
// A hook that returns an error refuses the commit: the engine rolls the batch
// back and returns the error to the committing caller (a replica that does not
// lead must not commit what it cannot log).
// stmts and their Args are borrowed for the duration of the call: the engine
// reuses them for its next transaction, so a hook that keeps a batch keeps
// what it encodes or copies from it (Log.Append encodes it).
type CommitHook func(stmts []Stmt) (uint64, error)

// SetCommitHook installs h as the engine's commit observer (nil to remove).
// The hook fires once per successful autocommit statement and once per
// committed transaction, with the mutating statements in execution order.
// Statements replayed through ApplyEntry do not fire the hook.
func (e *Engine) SetCommitHook(h CommitHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hook = h
}

// CommitObserver is a passive tap on every statement batch the engine
// applies, whether committed locally (after the commit hook has assigned idx;
// idx is 0 on an unlogged engine) or replayed through ApplyEntry (idx is the
// entry's index). Unlike CommitHook it fires on replicas too, which makes it
// the one ordered feed covering leaders, followers, durable standalone
// engines, and plain in-memory databases. It runs under the engine lock:
// implementations must be fast and must not call back into the engine.
// stmts and their Args are borrowed for the duration of the call, as a
// CommitHook's are: an observer copies out what it keeps.
type CommitObserver func(idx uint64, stmts []Stmt)

// SetCommitObserver installs o as the engine's applied-batch tap (nil to
// remove). The observer fires after the commit hook for locally committed
// batches and after successful replay for shipped entries.
func (e *Engine) SetCommitObserver(o CommitObserver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observer = o
}

// ApplyEntry deterministically replays one log entry produced by a commit
// hook on another engine. Multi-statement entries apply atomically: any
// statement error rolls back the whole entry. The commit hook is suppressed
// during replay, so a replica's own hook never re-records shipped entries.
func (e *Engine) ApplyEntry(entry LogEntry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.applying = true
	defer func() { e.applying = false }()
	for i := range entry.Stmts {
		if err := e.applyStmtLocked(&entry.Stmts[i]); err != nil {
			e.rollbackLocked()
			return fmt.Errorf("minisql: apply entry %d: %w", entry.Index, err)
		}
	}
	e.truncUndoLocked(0, 0)
	// Replayed entries advance the commit high-water mark too: a replica
	// promoted to leader must be able to issue covering tokens (LastLogged)
	// for writes it only ever saw through the log.
	if entry.Index > e.lastLogged {
		e.lastLogged = entry.Index
	}
	if e.observer != nil {
		e.observer(entry.Index, entry.Stmts)
	}
	return nil
}

// applyStmtLocked replays one logged statement through the handle its text
// resolves to on this engine — the pinned one when the engine prepared that
// text, so a follower runs the plan its leader ran — and records the handle
// in s for the commit observer. A statement without a spread that carries
// more arguments than parameters was logged by Tx.RunRows: its Args are whole
// argument rows, run through the executor RunRows used.
func (e *Engine) applyStmtLocked(s *Stmt) error {
	h, err := e.lookup(s.SQL, false)
	if err != nil {
		return err
	}
	s.prep = h
	spreadN := 0
	var hits []int
	switch {
	case len(s.Args) <= h.nparams:
	case h.spread:
		spreadN = len(s.Args) - h.nparams
	default:
		rows, err := h.argRows(len(s.Args))
		if err != nil {
			return err
		}
		e.applyHits = slices.Grow(e.applyHits[:0], rows)[:rows]
		hits = e.applyHits
	}
	_, _, err = e.execLocked(h, s.Args, spreadN, hits, nil)
	return err
}

// SetLastLogged overrides the commit high-water mark. A snapshot bootstrap
// sets it to the snapshot's index: the snapshot's writes are reflected
// in the restored state but never pass through ApplyEntry, so without this
// a promoted ex-bootstrapper would issue zero tokens for deduplicated
// re-submits of pre-snapshot writes.
func (e *Engine) SetLastLogged(idx uint64) {
	e.mu.Lock()
	e.lastLogged = idx
	e.mu.Unlock()
}

// Log is a node's commit log, and its only one: where a committed entry is
// numbered and encoded (disklog.go has the codec), written — through to the
// node's Store on a durable node — and read back. An in-memory node's log is
// built over no store and holds only its position.
//
// While the node leads, the log also keeps a window: a copy of every record
// appended since it opened, which RecordsSince serves a streaming sender
// from and Compact trims once every follower holds it. Below the window a
// durable log reads its segments; an in-memory one has nothing. What the
// cluster has committed of the log is the replication layer's decision.
type Log struct {
	store *Store // nil: an in-memory log

	mu      sync.Mutex
	last    uint64      // index of the newest entry
	open    bool        // the window is open: appends keep a copy
	base    uint64      // index of the last entry before records[0]; last while closed
	records []Record    // the window: entries base+1..last
	encBuf  []byte      // Append's scratch; the window keeps exact-size copies
	watch   wait.Signal // woken at every append
}

// NewLog returns the commit log over store (nil for an in-memory node),
// continuing from the store's newest entry: open it once the store has
// recovered. Its window starts closed.
func NewLog(store *Store) *Log {
	l := &Log{store: store}
	if store != nil {
		l.last = store.LastIndex()
	}
	l.base = l.last
	return l
}

// Append numbers one committed statement batch, encodes it — the only time
// a committed entry is encoded — and writes the record through to the store.
// It is a logging node's commit hook: on error nothing is logged and the
// engine refuses the commit. It allocates only the window's copy.
func (l *Log) Append(stmts []Stmt) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := l.last + 1
	l.encBuf = EncodeRecord(l.encBuf[:0], LogEntry{Index: idx, Stmts: stmts})
	if err := l.appendLocked(Record{Index: idx, Data: l.encBuf}); err != nil {
		return 0, err
	}
	return idx, nil
}

// AppendRecord logs a record another node numbered and encoded — a
// follower's copy of its leader's entry, as the bytes it arrived in.
func (l *Log) AppendRecord(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec Record) error {
	if l.store != nil {
		if err := l.store.AppendRecords(rec); err != nil {
			return err
		}
	}
	l.last = rec.Index
	if l.open {
		l.records = append(l.records, Record{Index: rec.Index, Data: bytes.Clone(rec.Data)})
	} else {
		l.base = l.last
	}
	l.watch.Wake()
	return nil
}

// InstallSnapshot replaces the node's state with the snapshot read from r at
// index idx, which restore reads — on a durable log the store keeps it as
// its checkpoint and discards the old log (Store.InstallSnapshot) — and
// restarts the log after idx.
func (l *Log) InstallSnapshot(r io.Reader, idx uint64, restore func(io.Reader) error) error {
	var err error
	if l.store != nil {
		err = l.store.InstallSnapshot(r, idx, restore)
	} else {
		err = restore(r)
	}
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.last, l.base, l.records = idx, idx, nil
	l.mu.Unlock()
	return nil
}

// SetWindow opens the window at the log's end (the node has begun to lead)
// or drops it and the records it kept (the node no longer leads).
func (l *Log) SetWindow(open bool) {
	l.mu.Lock()
	l.open, l.base, l.records = open, l.last, nil
	l.mu.Unlock()
}

// LastIndex returns the index of the newest entry.
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// RecordsSince appends records with index > after to dst, contiguous from
// after+1, and returns the extended slice (the bytes are shared: read-only).
// The window serves them to the log's end, allocating nothing once dst has
// grown; below it a durable log serves what its segments hold. ok is false
// when the log no longer reaches back to after (an in-memory log below its
// window, a durable one below its truncated segments): send a snapshot.
func (l *Log) RecordsSince(dst []Record, after uint64) (out []Record, ok bool) {
	l.mu.Lock()
	if after >= l.base {
		if after < l.last {
			dst = append(dst, l.records[after-l.base:]...)
		}
		l.mu.Unlock()
		return dst, true
	}
	l.mu.Unlock()
	if l.store == nil {
		return dst, false
	}
	recs, ok, err := l.store.log.Records(after)
	if err != nil || !ok {
		return dst, false
	}
	return append(dst, recs...), true
}

// Reaches reports whether RecordsSince can serve the records after after.
func (l *Log) Reaches(after uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return after >= l.base || l.store != nil && l.store.log.reaches(after)
}

// Watch returns a channel closed at the next append, for streaming senders
// to block on: take it before reading what the log holds.
func (l *Log) Watch() <-chan struct{} { return l.watch.Wait() }

// Compact drops window records with index <= upTo, keeping memory bounded
// once every follower holds them (a durable log still has them on disk).
func (l *Log) Compact(upTo uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upTo <= l.base {
		return
	}
	n := min(upTo-l.base, uint64(len(l.records)))
	l.records = append([]Record(nil), l.records[n:]...)
	l.base += n
}
