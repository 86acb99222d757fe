package minisql

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
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

// ErrCommitTimeout is returned by WaitCommitted when the quorum watermark
// does not reach the awaited index within the caller's timeout.
var ErrCommitTimeout = errors.New("minisql: quorum commit timeout")

// WAL is the in-memory window of the commit log: the record of every
// committed mutation since a base index, encoded once at Append (disklog.go
// has the codec). A leader replica appends its commit hook output here,
// hands the same record to its disk log and ships the same bytes to
// followers; RecordsSince supports resumable streaming and Compact trims
// records every connected follower has acknowledged.
//
// The WAL also carries the cluster's commit watermark: per-follower applied
// acknowledgements feed Ack, and the watermark is the highest index that at
// least quorum followers have applied. WaitCommitted lets a writer block
// until its entry is quorum-replicated (synchronous-replication mode); with
// quorum 0 every index counts as committed the moment it is appended, which
// preserves asynchronous semantics.
type WAL struct {
	mu      sync.Mutex
	base    uint64 // index of the last entry *before* records[0]
	records []Record
	encBuf  []byte        // Append's scratch; records keep exact-size copies
	watch   chan struct{} // closed and replaced on every append

	quorum  int               // follower acks required per index (0 = async)
	acks    map[string]uint64 // per-follower highest applied index
	commit  uint64            // quorum watermark (meaningful when quorum > 0)
	waitCh  chan struct{}     // made by a waiter; closed and dropped when commit advances or the log seals
	sealed  error             // non-nil once Seal is called; fails all waits
	waiters int               // writers currently blocked in WaitCommitted
}

// NewWAL returns an empty log whose first entry will get index base+1.
// Use base 0 for a fresh database, or the applied index of a promoted
// follower so its log continues the cluster's numbering.
func NewWAL(base uint64) *WAL {
	return &WAL{
		base:   base,
		watch:  make(chan struct{}),
		acks:   make(map[string]uint64),
		commit: base,
	}
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

// SetQuorum sets how many distinct follower acknowledgements an index needs
// before WaitCommitted considers it committed. 0 (the default) keeps the
// asynchronous semantics: WaitCommitted returns immediately. Set once, before
// the log is shared.
func (w *WAL) SetQuorum(q int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quorum = q
}

// SetCommitted lowers the quorum watermark to c when c is below it. A
// promoted follower's log continues at its applied index, but only the prefix
// its old leader reported committed is known to be on a quorum; the entries
// after it count as committed once acknowledged, like new ones. Call before
// the log is shared.
func (w *WAL) SetCommitted(c uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.commit = min(w.commit, c)
}

// Ack records that follower id has applied the log through idx. Acks are
// cumulative and monotonic per follower; a stale (lower) ack is ignored, so
// reconnecting followers can never move the watermark backwards.
func (w *WAL) Ack(id string, idx uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if idx <= w.acks[id] {
		return
	}
	w.acks[id] = idx
	w.advanceLocked()
}

// advanceLocked recomputes the quorum watermark: the quorum-th highest
// per-follower acknowledged index, which is the highest ack that at least
// quorum acks reach. Counting in place over the few followers a cluster has
// allocates nothing on the per-ack path.
func (w *WAL) advanceLocked() {
	if w.quorum <= 0 || len(w.acks) < w.quorum {
		return
	}
	c := w.commit
	for _, v := range w.acks {
		if v <= c {
			continue
		}
		reach := 0
		for _, u := range w.acks {
			if u >= v {
				reach++
			}
		}
		if reach >= w.quorum {
			c = v
		}
	}
	if c > w.commit {
		w.commit = c
		w.wakeLocked()
	}
}

// wakeLocked releases every writer blocked in WaitCommitted. The channel is
// made only when a writer waits, so advancing with none blocked allocates
// nothing.
func (w *WAL) wakeLocked() {
	if w.waitCh != nil {
		close(w.waitCh)
		w.waitCh = nil
	}
}

// Committed returns the commit watermark: the highest index known replicated
// to at least quorum followers. With quorum 0 everything appended counts as
// committed.
func (w *WAL) Committed() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.quorum <= 0 {
		return w.base + uint64(len(w.records))
	}
	return w.commit
}

// Seal fails every pending and future WaitCommitted with err. A leader seals
// its log when it steps down: waiters must not block out their full timeout
// against a log that will never advance.
func (w *WAL) Seal(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed != nil {
		return
	}
	w.sealed = err
	w.wakeLocked()
}

// WaitCommitted blocks until the quorum watermark reaches idx, the timeout
// expires (ErrCommitTimeout), or the log is sealed (the Seal error). With
// quorum 0 it returns nil immediately — asynchronous mode.
func (w *WAL) WaitCommitted(idx uint64, timeout time.Duration) error {
	w.mu.Lock()
	if w.quorum <= 0 {
		w.mu.Unlock()
		return nil
	}
	w.waiters++
	defer func() {
		w.mu.Lock()
		w.waiters--
		w.mu.Unlock()
	}()
	var timer *time.Timer
	for {
		if w.sealed != nil {
			err := w.sealed
			w.mu.Unlock()
			return err
		}
		if w.commit >= idx {
			w.mu.Unlock()
			return nil
		}
		if w.waitCh == nil {
			w.waitCh = make(chan struct{})
		}
		ch := w.waitCh
		w.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("%w: index %d not replicated to %d followers within %v",
				ErrCommitTimeout, idx, w.quorum, timeout)
		}
		w.mu.Lock()
	}
}

// QuorumWaiters reports how many writers are currently blocked in
// WaitCommitted. It is the leader's group-commit concurrency signal: two or
// more blocked writers mean the next flush is worth holding for the
// coalescing deadline, because every write in the resulting batch completes
// on one follower ack.
func (w *WAL) QuorumWaiters() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waiters
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
