package minisql

import (
	"fmt"
	"slices"
	"sync"
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
// monotonically increasing index assigned by the WAL, and are stored and
// shipped as Records.
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
	e.undo = e.undo[:0]
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

// WAL is the in-memory window of the commit log: the record of every
// committed mutation since a base index, encoded once at Append (disklog.go
// has the codec). A leader replica appends its commit hook output here,
// hands the same record to its disk log and ships the same bytes to
// followers; RecordsSince supports resumable streaming and Compact trims
// records every connected follower has acknowledged. The WAL holds records
// only: what the cluster has committed of them is the replication layer's
// decision, not the log's.
type WAL struct {
	mu      sync.Mutex
	base    uint64 // index of the last entry *before* records[0]
	records []Record
	encBuf  []byte        // Append's scratch; records keep exact-size copies
	watch   chan struct{} // closed and replaced on every append
}

// NewWAL returns an empty log whose first entry will get index base+1.
// Use base 0 for a fresh database, or the applied index of a promoted
// follower so its log continues the cluster's numbering.
func NewWAL(base uint64) *WAL {
	return &WAL{base: base, watch: make(chan struct{})}
}

// Append assigns one committed statement batch the next index and encodes
// it — the only time a replicated node does — returning the record.
func (w *WAL) Append(stmts []Stmt) Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	idx := w.base + uint64(len(w.records)) + 1
	w.encBuf = EncodeRecord(w.encBuf[:0], LogEntry{Index: idx, Stmts: stmts})
	rec := Record{Index: idx, Data: append([]byte(nil), w.encBuf...)}
	w.records = append(w.records, rec)
	close(w.watch)
	w.watch = make(chan struct{})
	return rec
}

// LastIndex returns the index of the newest entry (the base when empty).
func (w *WAL) LastIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base + uint64(len(w.records))
}

// RecordsSince appends all records with index > after to dst and returns
// the extended slice (the records' bytes are shared: read-only). A streaming
// sender passes the same slice back each time, so a ship pass allocates
// nothing. ok is false when after precedes the compacted base, meaning the
// caller needs a fresh snapshot instead of incremental entries.
func (w *WAL) RecordsSince(dst []Record, after uint64) (out []Record, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if after < w.base {
		return dst, false
	}
	if from := after - w.base; from < uint64(len(w.records)) {
		dst = append(dst, w.records[from:]...)
	}
	return dst, true
}

// Watch returns a channel closed at the next Append, for streaming senders
// to block on without polling.
func (w *WAL) Watch() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.watch
}

// Compact drops records with index <= upTo, keeping memory bounded once all
// followers have acknowledged past that point.
func (w *WAL) Compact(upTo uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if upTo <= w.base {
		return
	}
	n := upTo - w.base
	if n > uint64(len(w.records)) {
		n = uint64(len(w.records))
	}
	w.records = append([]Record(nil), w.records[n:]...)
	w.base += n
}
