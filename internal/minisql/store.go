package minisql

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is the durable storage spine of one node: a segmented on-disk
// statement log (DiskLog) plus periodic engine checkpoints, in one data
// directory:
//
//	<dir>/wal/seg-<firstIndex>.wal   log segments (records, see disklog.go)
//	<dir>/checkpoint-<index>.snap    engine snapshots (snapshot.go's gob encoding)
//	<dir>/meta.json                  node metadata (leadership term, membership view)
//
// Checkpoints and meta.json are published atomically (tmp + fsync + rename).
//
// Write path: the engine's commit hook appends each committed transaction
// under the engine lock. On a replicated node WAL.Append has encoded the
// entry already and AppendRecords writes the record it returned, so the disk
// log, the memory WAL and the replication stream carry the same bytes; a
// standalone durable node has no WAL and encodes in AppendAssign. The
// acknowledgement then waits in WaitDurable (see DiskLog for what fsync buys).
//
// Checkpoints bound both disk and replay time: after writing checkpoint N
// the log is truncated at the *previous* checkpoint's index, so the two
// newest checkpoints are always recoverable — if the newest file turns out
// unreadable or malformed, recovery falls back to the older one and replays
// forward. A checkpoint takes the engine lock only to capture its cut
// (Engine.SnapshotWith); encoding, fsync and publish run beside commits.
// Recovery = restore the newest valid checkpoint, then replay the log tail
// with index > checkpoint through the engine's deterministic ApplyEntry; a
// checkpoint ahead of a log whose non-fsynced tail was lost restarts the log
// at the checkpoint's index.
type Store struct {
	dir string
	opt StoreOptions
	fs  FS // filesystem seam (fs.go); OSFS in production
	log *DiskLog

	// ckptMu serializes Checkpoint and InstallSnapshot: the automatic
	// checkpoint loop (driven by appends) and a snapshot install (follower
	// bootstrap) can otherwise race their write-tmp-rename publishes and
	// prune each other's freshly renamed files.
	ckptMu sync.Mutex

	// metaMu serializes meta.json writers (SetTerm / SetAppliedTerm /
	// SetView), which would otherwise race their tmp+rename publishes through
	// the same tmp path, and makes each one's read-write-adopt atomic.
	metaMu sync.Mutex

	mu          sync.Mutex
	term        uint64
	appliedTerm uint64    // leadership term that produced the newest applied entry
	view        []byte    // opaque membership view owned by the replication layer
	checkIndex  uint64    // index of the newest on-disk checkpoint
	prevIndex   uint64    // index of the retained previous checkpoint
	checkAt     time.Time // when the newest checkpoint was written (or recovery time)
	sinceCheck  uint64    // entries appended since the newest checkpoint
	source      func(w io.Writer) (uint64, error)
	written     uint64 // checkpoints written (metrics)
	cpErr       error  // last checkpoint failure (surfaced in stats/status)
	ckptObs     func(time.Duration)

	ckptReq chan struct{}
	closeCh chan struct{}
	done    chan struct{}
	closed  bool
}

// StoreOptions parameterizes a Store.
type StoreOptions struct {
	// Fsync makes durability acknowledgements wait for fsync (survives
	// power loss). Off, appends still reach the OS before WaitDurable
	// returns, which survives process death but not machine loss.
	Fsync bool
	// CheckpointEvery is how many appended entries trigger an automatic
	// checkpoint (0 selects the default 10000; negative disables automatic
	// checkpoints).
	CheckpointEvery int
	// SegmentBytes is the log segment roll threshold (0: DefaultSegmentBytes).
	SegmentBytes int64
	// Logf, when set, receives storage lifecycle messages (checkpoint
	// failures, recovery notes).
	Logf func(format string, args ...any)
	// FS overrides the filesystem under the log and checkpoints. Nil
	// selects OSFS; tests inject faults (fsync failure, ENOSPC, torn
	// appends) through it.
	FS FS
}

// DefaultCheckpointEvery is the automatic checkpoint interval in log
// entries.
const DefaultCheckpointEvery = 10000

type storeMeta struct {
	Version     int
	Term        uint64
	AppliedTerm uint64          `json:",omitempty"`
	View        json.RawMessage `json:",omitempty"`
}

// OpenStore opens (or creates) the data directory and its log. The caller
// drives recovery with Recover, then installs a snapshot source with
// SetSnapshotSource to enable checkpoints.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = DefaultCheckpointEvery
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = OSFS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Sweep temp files left by a crash mid-checkpoint/install: never
	// published, so never part of recoverable state.
	if ents, err := fsys.ReadDir(dir); err == nil {
		for _, de := range ents {
			if strings.HasSuffix(de.Name(), ".tmp") {
				fsys.Remove(filepath.Join(dir, de.Name()))
			}
		}
	}
	log, err := OpenDiskLogFS(fsys, filepath.Join(dir, "wal"), opt.SegmentBytes, opt.Fsync)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir: dir, opt: opt, fs: fsys, log: log,
		checkAt: time.Now(),
		ckptReq: make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if data, err := fsys.ReadFile(s.metaPath()); err == nil {
		var m storeMeta
		if err := json.Unmarshal(data, &m); err == nil {
			s.term = m.Term
			s.appliedTerm = m.AppliedTerm
			s.view = m.View
		}
	}
	cps := s.checkpointFiles()
	if len(cps) > 0 {
		s.checkIndex = cps[0].Index
		if len(cps) > 1 {
			s.prevIndex = cps[1].Index
		}
	}
	go s.checkpointLoop()
	return s, nil
}

func (s *Store) metaPath() string { return filepath.Join(s.dir, "meta.json") }

// CheckpointRef names one on-disk checkpoint file.
type CheckpointRef struct {
	Index uint64
	Path  string
}

// checkpointFiles lists the on-disk checkpoints, newest first.
func (s *Store) checkpointFiles() []CheckpointRef {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []CheckpointRef
	for _, de := range ents {
		name := de.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".snap"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, CheckpointRef{Index: idx, Path: filepath.Join(s.dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index > out[j].Index })
	return out
}

func checkpointPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.snap", idx))
}

// Recover rebuilds engine state from disk: it restores the newest readable
// checkpoint via restore (which must leave the target untouched on decode
// failure, as Engine.Restore does) and returns the log tail to replay plus
// the resulting applied index. A fresh directory returns (0, nil, nil).
func (s *Store) Recover(restore func(r io.Reader, index uint64) error) (applied uint64, tail []LogEntry, err error) {
	var restored uint64
	var lastErr error
	for _, cp := range s.checkpointFiles() {
		f, err := s.fs.Open(cp.Path)
		if err != nil {
			lastErr = err
			continue
		}
		rerr := restore(f, cp.Index)
		f.Close()
		if rerr != nil {
			lastErr = rerr
			s.logf("checkpoint %s unreadable, falling back: %v", cp.Path, rerr)
			continue
		}
		restored = cp.Index
		break
	}
	if restored == 0 && lastErr != nil {
		// No readable checkpoint. Recovery can still succeed below when the
		// log reaches all the way back to genesis; otherwise Entries reports
		// the gap and the open fails.
		s.logf("no readable checkpoint, attempting full-log replay: %v", lastErr)
	}
	// The fsynced checkpoint can be ahead of a non-fsynced log tail lost in
	// a crash: restart the log at the checkpoint so appends continue from
	// the recovered state.
	if s.log.LastIndex() < restored {
		if err := s.log.Reset(restored); err != nil {
			return 0, nil, err
		}
	}
	tail, ok, err := s.log.Entries(restored)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("minisql: log truncated past checkpoint %d: unrecoverable gap", restored)
	}
	applied = restored
	for _, e := range tail {
		if e.Index != applied+1 {
			return 0, nil, fmt.Errorf("minisql: log gap during recovery: have %d, next entry %d", applied, e.Index)
		}
		applied = e.Index
	}
	s.mu.Lock()
	s.checkIndex = restored
	s.checkAt = time.Now()
	s.sinceCheck = uint64(len(tail))
	s.mu.Unlock()
	return applied, tail, nil
}

// SetSnapshotSource installs the engine serializer used by checkpoints: it
// must write a Restore-compatible snapshot and return the log index the
// snapshot reflects (Engine.SnapshotLogged).
func (s *Store) SetSnapshotSource(fn func(w io.Writer) (uint64, error)) {
	s.mu.Lock()
	s.source = fn
	s.mu.Unlock()
}

// AppendRecords records committed entries in the log as the bytes they
// already are (encoded by the memory WAL at commit, or shipped by a leader)
// and schedules a checkpoint when enough have accumulated.
func (s *Store) AppendRecords(recs ...Record) error {
	if err := s.log.AppendRecords(recs...); err != nil {
		return err
	}
	s.noteAppended(len(recs))
	return nil
}

func (s *Store) noteAppended(n int) {
	s.mu.Lock()
	s.sinceCheck += uint64(n)
	trigger := s.opt.CheckpointEvery > 0 && s.sinceCheck >= uint64(s.opt.CheckpointEvery) && s.source != nil
	s.mu.Unlock()
	if trigger {
		select {
		case s.ckptReq <- struct{}{}:
		default:
		}
	}
}

// AppendAssign assigns the next log index to stmts and appends the entry:
// the commit hook of a durable standalone database, where the store itself
// is the index authority. Returns 0 on failure (the commit stays in memory;
// the caller's durability wait surfaces the error). Reading the index and
// appending take the log's lock separately, so callers must serialize among
// themselves; the commit hook does, it runs under the engine lock.
func (s *Store) AppendAssign(stmts []Stmt) uint64 {
	idx := s.log.LastIndex() + 1
	if err := s.log.Append(LogEntry{Index: idx, Stmts: stmts}); err != nil {
		return 0
	}
	s.noteAppended(1)
	return idx
}

// WaitDurable blocks until the entry at idx is durable under the store's
// fsync policy.
func (s *Store) WaitDurable(idx uint64, timeout time.Duration) error {
	return s.log.WaitDurable(idx, timeout)
}

// Err returns the log's sticky I/O error, if any. Callers acknowledging
// writes must check it even for commits that got no log index (AppendAssign
// returning 0 IS the failure signal), so a broken disk refuses writes
// instead of silently acking them.
func (s *Store) Err() error { return s.log.Err() }

// RecordsAfter returns the retained log records with index > after, or an
// error when the log no longer reaches back that far (truncated by a
// checkpoint) — the caller needs a checkpoint instead.
func (s *Store) RecordsAfter(after uint64) ([]Record, error) {
	out, ok, err := s.log.Records(after)
	return out, truncatedErr(after, ok, err)
}

// EntriesAfter is RecordsAfter decoded.
func (s *Store) EntriesAfter(after uint64) ([]LogEntry, error) {
	out, ok, err := s.log.Entries(after)
	return out, truncatedErr(after, ok, err)
}

func truncatedErr(after uint64, ok bool, err error) error {
	if err == nil && !ok {
		err = fmt.Errorf("minisql: log entries after %d truncated by checkpoint", after)
	}
	return err
}

// Checkpoint writes an engine snapshot to disk (write-tmp, fsync, rename),
// then truncates the log at the previous checkpoint's index. Serialization
// runs outside the store lock: the snapshot source takes the engine lock,
// and commit hooks holding the engine lock append here.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	src := s.source
	s.mu.Unlock()
	if src == nil {
		return errors.New("minisql: no snapshot source installed")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	t0 := time.Now()
	f, err := s.fs.CreateTemp(s.dir, "checkpoint-*.tmp")
	if err != nil {
		return s.noteCheckpoint(err)
	}
	tmp := f.Name()
	idx, err := src(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmp)
		return s.noteCheckpoint(err)
	}
	s.mu.Lock()
	cur := s.checkIndex
	s.mu.Unlock()
	if idx <= cur {
		s.fs.Remove(tmp)
		return nil // nothing new committed since the last checkpoint
	}
	if err := s.fs.Rename(tmp, checkpointPath(s.dir, idx)); err != nil {
		s.fs.Remove(tmp)
		return s.noteCheckpoint(err)
	}
	syncDir(s.dir)

	s.mu.Lock()
	prev := s.checkIndex
	s.checkIndex = idx
	s.prevIndex = prev
	s.checkAt = time.Now()
	s.sinceCheck = 0
	s.written++
	s.cpErr = nil
	obs := s.ckptObs
	s.mu.Unlock()

	// Keep the new checkpoint and its predecessor; delete anything older,
	// and truncate the log at the predecessor so both stay replayable.
	for _, cp := range s.checkpointFiles() {
		if cp.Index != idx && cp.Index != prev {
			s.fs.Remove(cp.Path)
		}
	}
	if prev > 0 {
		s.log.TruncateTo(prev)
	}
	if obs != nil {
		obs(time.Since(t0))
	}
	return nil
}

func (s *Store) noteCheckpoint(err error) error {
	s.mu.Lock()
	s.cpErr = err
	s.mu.Unlock()
	s.logf("checkpoint failed: %v", err)
	return err
}

// checkpointLoop services automatic checkpoint requests from noteAppended.
func (s *Store) checkpointLoop() {
	defer close(s.done)
	for {
		select {
		case <-s.closeCh:
			return
		case <-s.ckptReq:
		}
		s.Checkpoint()
	}
}

// InstallSnapshot atomically replaces all durable state with snapshot data
// at the given log index — the disk half of a follower snapshot bootstrap.
// Old checkpoints and the whole log are discarded: they belong to a history
// the install just replaced.
func (s *Store) InstallSnapshot(data []byte, idx uint64) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	f, err := s.fs.CreateTemp(s.dir, "checkpoint-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil && s.opt.Fsync {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		s.fs.Remove(tmp)
		return werr
	}
	if err := s.fs.Rename(tmp, checkpointPath(s.dir, idx)); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	for _, cp := range s.checkpointFiles() {
		if cp.Index != idx {
			s.fs.Remove(cp.Path)
		}
	}
	if err := s.log.Reset(idx); err != nil {
		return err
	}
	s.mu.Lock()
	s.checkIndex = idx
	s.prevIndex = 0
	s.checkAt = time.Now()
	s.sinceCheck = 0
	s.written++
	s.mu.Unlock()
	return nil
}

// CheckpointFile returns the newest on-disk checkpoint's path and index,
// for file-streamed snapshot sends. ok is false when none exists yet.
func (s *Store) CheckpointFile() (path string, idx uint64, ok bool) {
	s.mu.Lock()
	idx = s.checkIndex
	s.mu.Unlock()
	if idx == 0 {
		return "", 0, false
	}
	return checkpointPath(s.dir, idx), idx, true
}

// Term returns the persisted leadership term.
func (s *Store) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term
}

// SetTerm persists a leadership term change (atomic tmp+rename). No-op when
// the term is unchanged, so heartbeat-path callers stay cheap. The new term
// is adopted (Term) only once it is on disk: after a failed write Term still
// reports the old one and a retry of the same term writes again.
func (s *Store) SetTerm(t uint64) error {
	return s.updateMeta(func(m *storeMeta) bool {
		changed := m.Term != t
		m.Term = t
		return changed
	})
}

// AppliedTerm returns the persisted term of the newest applied entry.
func (s *Store) AppliedTerm() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedTerm
}

// SetAppliedTerm persists the leadership term that produced the newest
// applied entry, adopting it once written as SetTerm does. It only changes
// when a node starts applying a new leader's entries (or promotes), so the
// no-op check keeps the apply path free of file I/O.
func (s *Store) SetAppliedTerm(t uint64) error {
	return s.updateMeta(func(m *storeMeta) bool {
		changed := m.AppliedTerm != t
		m.AppliedTerm = t
		return changed
	})
}

// View returns the membership view last persisted with SetView (nil when
// none was ever saved). The bytes are opaque to the store; the replication
// layer owns their encoding.
func (s *Store) View() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view
}

// SetView persists the replication layer's membership view alongside the
// term, so a restarted node recovers who the cluster was — the majority
// denominator for its elections — instead of waking up alone. No-op when the
// bytes are unchanged, keeping the adopt-on-every-heartbeat caller cheap; like
// SetTerm it adopts the view only once written.
func (s *Store) SetView(v []byte) error {
	return s.updateMeta(func(m *storeMeta) bool {
		if bytes.Equal(v, m.View) {
			return false
		}
		m.View = append([]byte(nil), v...)
		return true
	})
}

// updateMeta applies set to a copy of the persisted metadata and, when set
// reports a change, publishes it and only then adopts it in memory — so the
// in-memory fields never run ahead of meta.json.
func (s *Store) updateMeta(set func(m *storeMeta) bool) error {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	s.mu.Lock()
	m := storeMeta{Version: 1, Term: s.term, AppliedTerm: s.appliedTerm, View: s.view}
	s.mu.Unlock()
	if !set(&m) {
		return nil
	}
	if err := s.writeMeta(m); err != nil {
		return err
	}
	s.mu.Lock()
	s.term, s.appliedTerm, s.view = m.Term, m.AppliedTerm, m.View
	s.mu.Unlock()
	return nil
}

// writeMeta publishes meta.json atomically (tmp + optional fsync + rename).
// Any failure removes the tmp file and leaves meta.json as it was. Callers
// hold metaMu.
func (s *Store) writeMeta(m storeMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := s.metaPath() + ".tmp"
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if s.opt.Fsync {
		var f File
		if f, err = s.fs.OpenFile(tmp, os.O_WRONLY, 0o644); err == nil {
			err = f.Sync()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err == nil {
		err = s.fs.Rename(tmp, s.metaPath())
	}
	if err != nil {
		s.fs.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	return nil
}

// LastIndex returns the index of the newest entry in the log.
func (s *Store) LastIndex() uint64 { return s.log.LastIndex() }

// Fsync reports whether the store acknowledges durability only after fsync.
func (s *Store) Fsync() bool { return s.opt.Fsync }

// SetFsyncObserver forwards fsync durations to fn (the obs bridge).
func (s *Store) SetFsyncObserver(fn func(time.Duration)) { s.log.SetFsyncObserver(fn) }

// SetCheckpointObserver registers fn to receive the duration of every
// checkpoint written: snapshot, fsync, publish and log truncation.
func (s *Store) SetCheckpointObserver(fn func(time.Duration)) {
	s.mu.Lock()
	s.ckptObs = fn
	s.mu.Unlock()
}

// StoreStats is the store's metrics snapshot.
type StoreStats struct {
	Log             DiskLogStats
	CheckpointIndex uint64
	CheckpointAge   time.Duration
	Checkpoints     uint64 // checkpoints written since open
	SinceCheckpoint uint64 // entries appended since the newest checkpoint
	CheckpointErr   error
}

// Stats snapshots the store's counters for scrape-time collection.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{
		CheckpointIndex: s.checkIndex,
		CheckpointAge:   time.Since(s.checkAt),
		Checkpoints:     s.written,
		SinceCheckpoint: s.sinceCheck,
		CheckpointErr:   s.cpErr,
	}
	s.mu.Unlock()
	st.Log = s.log.Stats()
	return st
}

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf("store %s: "+format, append([]any{s.dir}, args...)...)
	}
}

// Close stops the checkpoint loop and closes the log (final flush/fsync).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.closeCh)
	<-s.done
	return s.log.Close()
}
