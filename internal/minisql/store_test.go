package minisql

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource is a stand-in engine snapshot: it writes a recognizable payload
// carrying the index the caller set, which recovery reads back and verifies.
// The store's checkpoint loop reads idx on its own goroutine while the test
// advances it.
type fakeSource struct{ idx atomic.Uint64 }

func (f *fakeSource) snapshot(w io.Writer) (uint64, error) {
	idx := f.idx.Load()
	_, err := fmt.Fprintf(w, "snap@%d", idx)
	return idx, err
}

func openTestStore(t *testing.T, dir string, opt StoreOptions) *Store {
	t.Helper()
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = -1 // explicit checkpoints only, unless asked
	}
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreCheckpointTruncateRecover(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{SegmentBytes: 512})
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	for i := uint64(1); i <= 50; i++ {
		if err := s.AppendRecords(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	src.idx.Store(50)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := uint64(51); i <= 60; i++ {
		if err := s.AppendRecords(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A second checkpoint truncates the log at the first one's index.
	src.idx.Store(60)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CheckpointIndex != 60 {
		t.Fatalf("checkpoint index = %d, want 60", st.CheckpointIndex)
	}
	if st.Log.Truncated == 0 {
		t.Fatal("second checkpoint truncated nothing")
	}
	if err := s.AppendRecords(testRecord(61)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	var restoredIdx uint64
	var restoredBody string
	applied, tail, err := s2.Recover(func(r io.Reader, idx uint64) error {
		b, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		restoredIdx, restoredBody = idx, string(b)
		return nil
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if restoredIdx != 60 || restoredBody != "snap@60" {
		t.Fatalf("restored checkpoint %d body %q", restoredIdx, restoredBody)
	}
	if applied != 61 {
		t.Fatalf("applied = %d, want 61 (checkpoint 60 + replayed tail)", applied)
	}
	if len(tail) != 1 || tail[0].Index != 61 {
		t.Fatalf("tail = %+v, want [entry 61]", tail)
	}
}

func TestStoreRecoverFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	for i := uint64(1); i <= 20; i++ {
		if err := s.AppendRecords(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	src.idx.Store(10)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src.idx.Store(20)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	applied, tail, err := s2.Recover(func(r io.Reader, idx uint64) error {
		b, _ := io.ReadAll(r)
		if want := fmt.Sprintf("snap@%d", idx); string(b) != want {
			// Simulate the newest checkpoint being unreadable garbage.
			return fmt.Errorf("bad payload %q", b)
		}
		if idx == 20 {
			return fmt.Errorf("newest checkpoint corrupt (simulated)")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recover with corrupt newest: %v", err)
	}
	if applied != 20 {
		t.Fatalf("applied = %d, want 20 (checkpoint 10 + log tail)", applied)
	}
	if len(tail) != 10 || tail[0].Index != 11 || tail[9].Index != 20 {
		t.Fatalf("tail after fallback spans %d entries", len(tail))
	}
}

func TestStoreInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	for i := uint64(1); i <= 5; i++ {
		if err := s.AppendRecords(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InstallSnapshot([]byte("snap@100"), 100); err != nil {
		t.Fatalf("install: %v", err)
	}
	path, idx, ok := s.CheckpointFile()
	if !ok || idx != 100 {
		t.Fatalf("CheckpointFile = %q %d %v", path, idx, ok)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "snap@100" {
		t.Fatalf("checkpoint file %q err %v", b, err)
	}
	if got := s.LastIndex(); got != 100 {
		t.Fatalf("log reset to %d, want 100", got)
	}
	// The follower continues appending right after the installed index.
	if err := s.AppendRecords(testRecord(101)); err != nil {
		t.Fatalf("append after install: %v", err)
	}
	tail, err := s.EntriesAfter(100)
	if err != nil || len(tail) != 1 || tail[0].Index != 101 {
		t.Fatalf("EntriesAfter(100) = %+v err %v", tail, err)
	}
}

func TestStoreTermPersistence(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	if got := s.Term(); got != 0 {
		t.Fatalf("fresh term = %d", got)
	}
	if err := s.SetTerm(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Term(); got != 3 {
		t.Fatalf("term after reopen = %d, want 3", got)
	}
}

// TestStoreTermWriteFailure: a term whose meta.json write fails to fsync is
// reported, never published and never adopted, so a retry of the same term
// writes again instead of no-oping against a value only memory holds.
func TestStoreTermWriteFailure(t *testing.T) {
	dir := t.TempDir()
	errMetaSync := errors.New("injected meta.json.tmp fsync failure")
	var fail atomic.Bool
	var syncs atomic.Int32 // fsyncs of meta.json.tmp attempted
	fsys := syncHookFS{OSFS, func(name string) error {
		if filepath.Base(name) != "meta.json.tmp" {
			return nil
		}
		syncs.Add(1)
		if fail.Load() {
			return errMetaSync
		}
		return nil
	}}
	s := openTestStore(t, dir, StoreOptions{Fsync: true, FS: fsys})
	if err := s.SetTerm(3); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, "meta.json")
	before, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}

	fail.Store(true)
	if err := s.SetTerm(4); !errors.Is(err, errMetaSync) {
		t.Fatalf("SetTerm with a failing fsync = %v, want the fsync error", err)
	}
	if after, _ := os.ReadFile(meta); !bytes.Equal(after, before) || s.Term() != 3 {
		t.Fatalf("failed SetTerm(4): meta.json %s (was %s), Term %d; want both unchanged", after, before, s.Term())
	}
	if _, err := os.Stat(meta + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed SetTerm left meta.json.tmp behind (stat: %v)", err)
	}

	fail.Store(false)
	attempts := syncs.Load()
	if err := s.SetTerm(4); err != nil {
		t.Fatal(err)
	}
	if syncs.Load() == attempts {
		t.Fatal("retrying SetTerm(4) after the failure wrote nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Term(); got != 4 {
		t.Fatalf("term after retry and reopen = %d, want 4", got)
	}
}

func TestStoreAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{CheckpointEvery: 8})
	defer s.Close()
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	for i := uint64(1); i <= 20; i++ {
		src.idx.Store(i)
		if err := s.AppendRecords(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Checkpoints > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no automatic checkpoint after exceeding CheckpointEvery")
}

func TestStoreEntriesAfterTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{SegmentBytes: 256})
	defer s.Close()
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	for i := uint64(1); i <= 40; i++ {
		if err := s.AppendRecords(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	src.idx.Store(20)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src.idx.Store(40)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Log.Truncated == 0 {
		t.Skip("segments did not roll; nothing truncated")
	}
	if _, err := s.EntriesAfter(0); err == nil {
		t.Fatal("EntriesAfter(0) succeeded past truncation")
	}
	if tail, err := s.EntriesAfter(20); err != nil || len(tail) != 20 {
		t.Fatalf("EntriesAfter(20): n=%d err=%v", len(tail), err)
	}
}

// TestStoreAppendAssignFailureSurfaced pins the ack-path contract: a failed
// append yields token 0 AND a sticky store error. Token 0 alone looks like
// "nothing to wait for" to durability waits, which would silently ack a
// write the log never persisted.
func TestStoreAppendAssignFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	if idx := s.AppendAssign([]Stmt{{SQL: "INSERT"}}); idx != 1 {
		t.Fatalf("healthy AppendAssign = %d, want 1", idx)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("healthy store Err() = %v, want nil", err)
	}
	// Poison the log the way a failed write/flush would.
	s.log.mu.Lock()
	s.log.err = fmt.Errorf("minisql: disk log: %w", os.ErrClosed)
	s.log.mu.Unlock()
	if idx := s.AppendAssign([]Stmt{{SQL: "INSERT"}}); idx != 0 {
		t.Fatalf("poisoned AppendAssign = %d, want 0", idx)
	}
	if err := s.Err(); err == nil {
		t.Fatal("store Err() = nil after append failure; the ack path would silently accept the write")
	}
}

// TestStoreCheckpointInstallConcurrent races the automatic-checkpoint path
// against snapshot installs: with a shared fixed tmp file their
// write-tmp-rename publishes could interleave and publish a checkpoint whose
// bytes belong to the other writer. Recovery must always see a checkpoint
// whose content matches its index.
func TestStoreCheckpointInstallConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// AppendAssign rides the store's own index authority, so a
			// concurrent install resetting the log just moves the next index
			// instead of tearing a contiguity gap.
			idx := s.AppendAssign(testEntry(1).Stmts)
			if idx == 0 {
				continue
			}
			src.idx.Store(idx)
			s.Checkpoint()
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= 50; i++ {
			idx := 2*i + 1
			if err := s.InstallSnapshot([]byte(fmt.Sprintf("snap@%d", idx)), idx); err != nil {
				t.Errorf("InstallSnapshot(%d): %v", idx, err)
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	var gotIdx uint64
	var gotBody string
	if _, _, err := s2.Recover(func(r io.Reader, idx uint64) error {
		b, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		gotIdx, gotBody = idx, string(b)
		return nil
	}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if gotIdx == 0 {
		t.Fatal("no checkpoint survived the churn")
	}
	if want := fmt.Sprintf("snap@%d", gotIdx); gotBody != want {
		t.Fatalf("checkpoint %d holds %q, want %q: cross-writer tmp collision", gotIdx, gotBody, want)
	}
}

// TestRecoverFallsBackPastMalformedCheckpoint: the newest checkpoint decodes
// as gob but does not describe a database (a row narrower than its indexed
// table). Engine.Restore refuses it, so recovery restores the previous
// checkpoint and replays the log forward to the same state. Restore used to
// panic on such a file and the fallback never ran.
func TestRecoverFallsBackPastMalformedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	e.SetCommitHook(func(stmts []Stmt) (uint64, error) { return s.AppendAssign(stmts), nil })
	s.SetSnapshotSource(e.SnapshotLogged)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			mustExec(t, e, "INSERT INTO t (v) VALUES (?)", fmt.Sprintf("r%d-%d", round, i))
		}
		if round < 2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var live bytes.Buffer
	if err := e.Snapshot(&live); err != nil {
		t.Fatal(err)
	}
	newest, idx, ok := s.CheckpointFile()
	if !ok || idx != 20 {
		t.Fatalf("newest checkpoint %q at %d (ok=%v), want index 20", newest, idx, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(&snapDB{Version: 1, Tables: []snapTable{{
		Name: "t", NextKey: 21, Indexes: []string{"v"},
		Cols: []ColumnDef{{Name: "id", Type: TypeInteger}, {Name: "v", Type: TypeText}},
		Rows: [][]snapValue{{snapValue(Int64(1))}},
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, bad.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	e2 := NewEngine()
	var restoredAt uint64
	applied, tail, err := s2.Recover(func(r io.Reader, idx uint64) error {
		if err := e2.Restore(r); err != nil {
			return err
		}
		restoredAt = idx
		return nil
	})
	if err != nil {
		t.Fatalf("recover past a malformed newest checkpoint: %v", err)
	}
	if restoredAt != 10 || applied != 30 || len(tail) != 20 {
		t.Fatalf("restored checkpoint %d, applied %d, %d tail entries; want 10, 30, 20", restoredAt, applied, len(tail))
	}
	for _, ent := range tail {
		if err := e2.ApplyEntry(ent); err != nil {
			t.Fatal(err)
		}
	}
	var recovered bytes.Buffer
	if err := e2.Snapshot(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
		t.Fatalf("recovered engine diverges from the live one (%d vs %d snapshot bytes)", recovered.Len(), live.Len())
	}
}
