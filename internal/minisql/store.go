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

	"osprey/internal/codec"
)

// Store is the durable storage spine of one node: a segmented on-disk
// statement log (DiskLog) plus periodic engine checkpoints, in one data
// directory:
//
//	<dir>/wal/seg-<firstIndex>.wal   log segments (records, see disklog.go)
//	<dir>/checkpoint-<index>.snap    engine snapshots (records, see snapshot.go)
//	<dir>/meta                       node metadata (one record, see Meta)
//
// Checkpoints and meta are published the same way (publish): written to a
// tmp file, fsynced (a checkpoint always, meta and an installed snapshot with
// Fsync), renamed into place and the directory synced.
//
// Write path: the node's Log (wal.go), the engine's commit hook, numbers and
// encodes each committed transaction under the engine lock and writes the
// record here with AppendRecords; a follower's Log writes its leader's
// records the same way. So the disk log, a leader's window and the
// replication stream carry the same bytes. The acknowledgement then waits in
// WaitDurable (see DiskLog for what fsync buys).
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

	// metaMu serializes SetMeta calls, making each one's compare, publish
	// and adopt atomic: two racing writers could otherwise adopt in the
	// opposite order to the one their files landed in.
	metaMu sync.Mutex

	mu         sync.Mutex
	meta       Meta
	legacyMeta bool      // meta was read from a pre-record meta.json, which the next SetMeta replaces
	checkIndex uint64    // index of the newest on-disk checkpoint
	prevIndex  uint64    // index of the retained previous checkpoint
	checkAt    time.Time // when the newest checkpoint was written (or recovery time)
	sinceCheck uint64    // entries appended since the newest checkpoint
	source     func(w io.Writer) (uint64, error)
	written    uint64 // checkpoints written (metrics)
	cpErr      error  // last checkpoint failure (surfaced in stats/status)
	ckptObs    func(time.Duration)

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
	s := &Store{
		dir: dir, opt: opt, fs: fsys,
		checkAt: time.Now(),
		ckptReq: make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := s.readMeta(); err != nil {
		return nil, err
	}
	log, err := OpenDiskLogFS(fsys, filepath.Join(dir, "wal"), opt.SegmentBytes, opt.Fsync)
	if err != nil {
		return nil, err
	}
	s.log = log
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

// Recover rebuilds engine state from disk: it streams the newest readable
// checkpoint file through restore (which must leave the target untouched on
// decode failure, as Engine.Restore does) and returns the log tail to replay plus
// the resulting applied index. A fresh directory returns (0, nil, nil).
func (s *Store) Recover(restore func(r io.Reader, index uint64) error) (applied uint64, tail []LogEntry, err error) {
	var restored, newestIdx uint64
	var newestErr error // why the newest checkpoint, at newestIdx, was refused
	for _, cp := range s.checkpointFiles() {
		f, err := s.fs.Open(cp.Path)
		if err == nil {
			err = restore(f, cp.Index)
			f.Close()
		}
		if err == nil {
			restored = cp.Index
			break
		}
		if newestErr == nil {
			newestIdx, newestErr = cp.Index, fmt.Errorf("checkpoint %s: %w", cp.Path, err)
		}
		s.logf("checkpoint %s unreadable, falling back: %v", cp.Path, err)
	}
	if restored == 0 && newestErr != nil {
		// No readable checkpoint. Recovery can still succeed below when the
		// log reaches all the way back to genesis; otherwise the open fails
		// naming the newest checkpoint's refusal.
		s.logf("no readable checkpoint, attempting full-log replay: %v", newestErr)
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
	// A refused checkpoint at index n > 0 stands for entries 1..n, which
	// only a log starting at the first entry can replay in its place.
	if restored == 0 && newestIdx > 0 && (len(tail) == 0 || tail[0].Index != 1) {
		ok = false
	}
	if !ok {
		err := fmt.Errorf("minisql: log truncated past checkpoint %d: unrecoverable gap", restored)
		if restored == 0 && newestErr != nil {
			err = fmt.Errorf("%w, and the newest %w", err, newestErr)
		}
		return 0, nil, err
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
// already are (encoded by the node's Log at commit, or shipped by a leader)
// and schedules a checkpoint when enough have accumulated.
func (s *Store) AppendRecords(recs ...Record) error {
	if err := s.log.AppendRecords(recs...); err != nil {
		return err
	}
	s.mu.Lock()
	s.sinceCheck += uint64(len(recs))
	trigger := s.opt.CheckpointEvery > 0 && s.sinceCheck >= uint64(s.opt.CheckpointEvery) && s.source != nil
	s.mu.Unlock()
	if trigger {
		select {
		case s.ckptReq <- struct{}{}:
		default:
		}
	}
	return nil
}

// WaitDurable blocks until the entry at idx is durable under the store's
// fsync policy.
func (s *Store) WaitDurable(idx uint64, timeout time.Duration) error {
	return s.log.WaitDurable(idx, timeout)
}

// Synced returns the newest log index that is durable under the store's
// fsync policy.
func (s *Store) Synced() uint64 { return s.log.Synced() }

// EntriesAfter returns the retained log entries with index > after, decoded,
// or an error when the log no longer reaches back that far (truncated by a
// checkpoint).
func (s *Store) EntriesAfter(after uint64) ([]LogEntry, error) {
	out, ok, err := s.log.Entries(after)
	if err == nil && !ok {
		err = fmt.Errorf("minisql: log entries after %d truncated by checkpoint", after)
	}
	return out, err
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
	s.mu.Lock()
	cur := s.checkIndex
	s.mu.Unlock()
	var idx uint64
	err := s.publish("checkpoint-*.tmp", true, func(w io.Writer) (string, error) {
		var err error
		if idx, err = src(w); err == nil && idx <= cur {
			err = errUnchanged
		}
		return checkpointPath(s.dir, idx), err
	})
	if err == errUnchanged {
		return nil // nothing new committed since the last checkpoint
	}
	if err != nil {
		return s.noteCheckpoint(err)
	}

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

// checkpointLoop services automatic checkpoint requests from AppendRecords.
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

// errUnchanged refuses to publish a checkpoint of an index already on disk.
var errUnchanged = errors.New("minisql: checkpoint unchanged")

// publish is the one way a file in the data directory is replaced: write
// fills a tmp file named by pattern and returns the path it publishes to; the
// tmp is fsynced when sync, renamed onto that path, and the directory synced.
// A failure removes the tmp file and leaves the target as it was. Callers
// serialize publishes of one target: ckptMu for checkpoints, metaMu for meta.
func (s *Store) publish(pattern string, sync bool, write func(io.Writer) (target string, err error)) error {
	f, err := s.fs.CreateTemp(s.dir, pattern)
	if err != nil {
		return err
	}
	target, err := write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(f.Name(), target)
	}
	if err != nil {
		s.fs.Remove(f.Name())
		return err
	}
	syncDir(s.dir)
	return nil
}

// InstallSnapshot makes the checkpoint read from r, at log index idx, all of
// the node's durable state — the disk half of a follower's bootstrap. restore
// (the engine's Restore) reads the bytes, teed into the checkpoint file as it
// does; only once it has taken them all is the file published and the old
// checkpoints and the log, a replaced history, discarded.
func (s *Store) InstallSnapshot(r io.Reader, idx uint64, restore func(io.Reader) error) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.publish("checkpoint-*.tmp", s.opt.Fsync, func(w io.Writer) (string, error) {
		return checkpointPath(s.dir, idx), restore(io.TeeReader(r, w))
	}); err != nil {
		return err
	}
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

// CheckpointFile returns the newest on-disk checkpoint's path and index, for
// a reader of the checkpoint itself (Engine.Restore takes the open file). ok
// is false when none exists yet.
func (s *Store) CheckpointFile() (path string, idx uint64, ok bool) {
	s.mu.Lock()
	idx = s.checkIndex
	s.mu.Unlock()
	if idx == 0 {
		return "", 0, false
	}
	return checkpointPath(s.dir, idx), idx, true
}

// Meta is a node's persistent replication state: its leadership term, the
// term that produced its newest applied entry, and its membership view, bytes
// the replication layer encodes. <dir>/meta holds it as one CRC-framed record
// (disklog.go) whose payload has a checkpoint's header shape:
//
//	"minisql meta" | uvarint version | uvarint term | uvarint applied term |
//	uvarint view length | view bytes
type Meta struct {
	Term, AppliedTerm uint64
	View              []byte
}

const (
	metaFile, legacyMetaFile = "meta", "meta.json" // meta.json: builds before the record
	metaMagic                = "minisql meta"
	metaVersion              = 1
)

// ErrMetaCorrupt refuses a data directory whose meta file does not check: a
// term read as 0 would let the node vote again in terms it voted in. Wipe
// the directory and rejoin the cluster, which bootstraps the node by snapshot.
var ErrMetaCorrupt = errors.New("corrupt node metadata")

// Meta returns the persisted node metadata (zero in a fresh directory). Its
// View is shared: read it, do not modify it.
func (s *Store) Meta() Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta
}

// SetMeta persists m in one publish and adopts it (Meta) only once it is on
// disk: after a failed write Meta still reports the old value, and a retry
// writes again. No-op when m equals Meta, so heartbeat-path callers stay free
// of file I/O — unless Meta came from a pre-record meta.json, which the first
// SetMeta replaces.
func (s *Store) SetMeta(m Meta) error {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	s.mu.Lock()
	cur, legacy := s.meta, s.legacyMeta
	s.mu.Unlock()
	if !legacy && m.Term == cur.Term && m.AppliedTerm == cur.AppliedTerm && bytes.Equal(m.View, cur.View) {
		return nil
	}
	m.View = bytes.Clone(m.View)
	if err := s.publish("meta-*.tmp", s.opt.Fsync, func(w io.Writer) (string, error) {
		_, err := w.Write(encodeMeta(m))
		return filepath.Join(s.dir, metaFile), err
	}); err != nil {
		return err
	}
	if legacy {
		s.fs.Remove(filepath.Join(s.dir, legacyMetaFile))
	}
	s.mu.Lock()
	s.meta, s.legacyMeta = m, false
	s.mu.Unlock()
	return nil
}

// readMeta loads <dir>/meta, else a pre-record meta.json; neither is a fresh
// node, and one that does not decode is ErrMetaCorrupt. meta wins over a
// meta.json that a crash left beside it, before SetMeta removed it.
func (s *Store) readMeta() error {
	path, decode := filepath.Join(s.dir, metaFile), decodeMeta
	data, err := s.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		path, decode = filepath.Join(s.dir, legacyMetaFile), decodeLegacyMeta
		if data, err = s.fs.ReadFile(path); errors.Is(err, os.ErrNotExist) {
			return nil
		}
		s.legacyMeta = true
	}
	if err == nil {
		s.meta, err = decode(data)
	}
	if err != nil {
		return fmt.Errorf("minisql: %s: %w", path, err)
	}
	return nil
}

// encodeMeta returns m as the meta file's one record.
func encodeMeta(m Meta) []byte {
	b := codec.AppendUvarint(append(make([]byte, recordHeaderSize), metaMagic...), metaVersion)
	b = codec.AppendUvarint(codec.AppendUvarint(b, m.Term), m.AppliedTerm)
	return sealRecord(codec.AppendBytes(b, m.View), 0)
}

// decodeMeta reads a meta file: anything but the bytes encodeMeta writes for
// what it decodes is ErrMetaCorrupt, so each Meta has one encoding.
func decodeMeta(data []byte) (Meta, error) {
	payload, _, err := readRecord(data)
	if err != nil || !bytes.HasPrefix(payload, []byte(metaMagic)) {
		return Meta{}, ErrMetaCorrupt
	}
	r := codec.NewReader(payload[len(metaMagic):], ErrMetaCorrupt)
	r.Uvarint() // the version: any but metaVersion fails the comparison below
	m := Meta{Term: r.Uvarint(), AppliedTerm: r.Uvarint()}
	if v := r.Bytes(); len(v) > 0 {
		m.View = bytes.Clone(v)
	}
	if r.Err() != nil || !bytes.Equal(encodeMeta(m), data) {
		return Meta{}, ErrMetaCorrupt
	}
	return m, nil
}

// decodeLegacyMeta reads the meta.json of builds before the record:
// {"Version":1,"Term":…,"AppliedTerm":…,"View":…}.
func decodeLegacyMeta(data []byte) (Meta, error) {
	var j struct {
		Version           int
		Term, AppliedTerm uint64
		View              json.RawMessage
	}
	if err := json.Unmarshal(data, &j); err != nil || j.Version != 1 {
		return Meta{}, ErrMetaCorrupt
	}
	return Meta{j.Term, j.AppliedTerm, j.View}, nil
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
