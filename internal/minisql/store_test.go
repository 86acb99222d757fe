package minisql

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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
	if err := s.InstallSnapshot(bytes.NewReader([]byte("snap@100")), 100, drain); err != nil {
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

// drain is an InstallSnapshot restore that takes every byte and refuses
// none.
func drain(r io.Reader) error {
	_, err := io.Copy(io.Discard, r)
	return err
}

// TestStoreInstallSnapshotRefusedKeepsState: an install whose restore
// refuses the stream — a broken bootstrap, or bytes that do not decode —
// publishes no checkpoint, keeps the log and the checkpoint it had, and
// leaves no tmp file behind.
func TestStoreInstallSnapshotRefusedKeepsState(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	for i := uint64(1); i <= 5; i++ {
		if err := s.AppendRecords(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	src.idx.Store(5)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cut := errors.New("stream cut")
	refuse := func(r io.Reader) error {
		io.CopyN(io.Discard, r, 4) // some bytes reach the tmp file first
		return cut
	}
	if err := s.InstallSnapshot(bytes.NewReader([]byte("snap@100")), 100, refuse); !errors.Is(err, cut) {
		t.Fatalf("refused install: err = %v, want the restore's", err)
	}
	if _, idx, _ := s.CheckpointFile(); idx != 5 {
		t.Fatalf("newest checkpoint after a refused install is %d, want 5", idx)
	}
	if got := s.LastIndex(); got != 5 {
		t.Fatalf("log ends at %d after a refused install, want 5", got)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if filepath.Ext(name) == ".tmp" || filepath.Base(name) == "checkpoint-00000000000000000100.snap" {
			t.Fatalf("a refused install left %s", name)
		}
	}
}

func TestStoreTermPersistence(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	if got := s.Meta().Term; got != 0 {
		t.Fatalf("fresh term = %d", got)
	}
	if err := s.SetMeta(Meta{Term: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Meta().Term; got != 3 {
		t.Fatalf("term after reopen = %d, want 3", got)
	}
}

// TestStoreTermWriteFailure: a term whose meta write fails to fsync is
// reported, never published and never adopted, so a retry of the same term
// writes again instead of no-oping against a value only memory holds.
func TestStoreTermWriteFailure(t *testing.T) {
	dir := t.TempDir()
	errMetaSync := errors.New("injected meta tmp fsync failure")
	var fail atomic.Bool
	var syncs atomic.Int32 // fsyncs of a meta tmp file attempted
	fsys := syncHookFS{OSFS, func(name string) error {
		if !strings.HasPrefix(filepath.Base(name), "meta-") {
			return nil
		}
		syncs.Add(1)
		if fail.Load() {
			return errMetaSync
		}
		return nil
	}}
	s := openTestStore(t, dir, StoreOptions{Fsync: true, FS: fsys})
	if err := s.SetMeta(Meta{Term: 3}); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, "meta")
	before, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}

	fail.Store(true)
	if err := s.SetMeta(Meta{Term: 4}); !errors.Is(err, errMetaSync) {
		t.Fatalf("SetMeta with a failing fsync = %v, want the fsync error", err)
	}
	if after, _ := os.ReadFile(meta); !bytes.Equal(after, before) || s.Meta().Term != 3 {
		t.Fatalf("failed SetMeta(term 4): meta %q (was %q), term %d; want both unchanged", after, before, s.Meta().Term)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "meta-*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed SetMeta left %v behind", tmps)
	}

	fail.Store(false)
	attempts := syncs.Load()
	if err := s.SetMeta(Meta{Term: 4}); err != nil {
		t.Fatal(err)
	}
	if syncs.Load() == attempts {
		t.Fatal("retrying SetMeta(term 4) after the failure wrote nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Meta().Term; got != 4 {
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

// TestLogAppendFailureSurfaced pins the ack-path contract: an append the
// disk refused is an error, and the engine's commit hook passes it on, so the
// write is rolled back and refused to its client instead of acked at a token
// the log never persisted. The store's sticky error refuses every later
// write the same way.
func TestLogAppendFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	l := NewLog(s)
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	e.SetCommitHook(l.Append)
	if _, err := execSQL(e, "INSERT INTO t (v) VALUES (?)", Text("kept")); err != nil || e.LastLogged() != 1 {
		t.Fatalf("healthy write = %v, token %d; want token 1", err, e.LastLogged())
	}
	// Poison the log the way a failed write/flush would.
	s.log.mu.Lock()
	s.log.err = fmt.Errorf("minisql: disk log: %w", os.ErrClosed)
	s.log.mu.Unlock()
	for i := 0; i < 2; i++ {
		if _, err := execSQL(e, "INSERT INTO t (v) VALUES (?)", Text("lost")); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("write %d on a poisoned log = %v, want the disk error", i, err)
		}
	}
	if got := mustExec(t, e, "SELECT COUNT(*) FROM t").Rows[0][0].AsInt(); got != 1 || l.LastIndex() != 1 || e.LastLogged() != 1 {
		t.Fatalf("after refused writes: %d rows, log at %d, LastLogged %d; want 1 everywhere", got, l.LastIndex(), e.LastLogged())
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
	l := NewLog(s)
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// The log restarts after each install, so a concurrent install
			// just moves the next index; an append that lands between the
			// store's reset and the log's is refused as a gap.
			idx, err := l.Append(testEntry(1).Stmts)
			if err != nil {
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
			if err := l.InstallSnapshot(bytes.NewReader([]byte(fmt.Sprintf("snap@%d", idx))), idx, drain); err != nil {
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

// TestRecoverFallsBackPastMalformedCheckpoint: the newest checkpoint's
// records check out but do not describe a database (a row narrower than its indexed
// table). Engine.Restore refuses it, so recovery restores the previous
// checkpoint and replays the log forward to the same state. Restore used to
// panic on such a file and the fallback never ran.
func TestRecoverFallsBackPastMalformedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	e.SetCommitHook(NewLog(s).Append)
	s.SetSnapshotSource(e.SnapshotLogged)
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			mustExec(t, e, "INSERT INTO t (v) VALUES (?)", Text(fmt.Sprintf("r%d-%d", round, i)))
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
	bad := encodeCheckpoint(t, tableCut{
		name: "t", nextKey: 21, plain: []string{"v"},
		cols: []ColumnDef{{Name: "id", Type: TypeInteger}, {Name: "v", Type: TypeText}},
		rows: [][]Value{{Int64(1)}},
	})
	if err := os.WriteFile(newest, bad, 0o644); err != nil {
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

// TestMetaDamageRefused: a meta file that is torn, zeroed, bit-flipped or
// trailed by stray bytes, and a legacy meta.json that is torn or zeroed, fail
// OpenStore with ErrMetaCorrupt. None reads as term 0.
func TestMetaDamageRefused(t *testing.T) {
	good := encodeMeta(Meta{Term: 7, AppliedTerm: 6, View: []byte(`{"Peers":[{"ID":"n1"},{"ID":"n2"},{"ID":"n3"}]}`)})
	legacy := []byte(`{"Version":1,"Term":7,"AppliedTerm":6,"View":{"Peers":[{"ID":"n1"},{"ID":"n2"},{"ID":"n3"}]}}`)
	flip := func(b []byte, bit int) []byte {
		b = bytes.Clone(b)
		b[bit/8] ^= 1 << (bit % 8)
		return b
	}
	cases := []struct {
		name, file string
		data       []byte
	}{
		{"torn", "meta", good[:len(good)/2]},
		{"torn header", "meta", good[:recordHeaderSize-1]},
		{"empty", "meta", nil},
		{"zeroed", "meta", make([]byte, len(good))},
		{"length bit", "meta", flip(good, 1)},
		{"crc bit", "meta", flip(good, 8*4+3)},
		{"magic bit", "meta", flip(good, 8*recordHeaderSize)},
		{"term bit", "meta", flip(good, 8*(recordHeaderSize+len(metaMagic)+1))},
		{"last bit", "meta", flip(good, 8*len(good)-1)},
		{"trailing byte", "meta", append(bytes.Clone(good), 0)},
		{"legacy torn", "meta.json", legacy[:len(legacy)/2]},
		{"legacy zeroed", "meta.json", make([]byte, len(legacy))},
		{"legacy empty", "meta.json", nil},
	}
	for _, c := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, c.file), c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir, StoreOptions{})
		if err == nil {
			term := s.Meta().Term
			s.Close()
			t.Errorf("%s: OpenStore succeeded at term %d, want ErrMetaCorrupt", c.name, term)
			continue
		}
		if !errors.Is(err, ErrMetaCorrupt) {
			t.Errorf("%s: OpenStore = %v, want ErrMetaCorrupt", c.name, err)
		}
	}
}

// TestLegacyMetaMigrates: a meta.json is read once; the first SetMeta, even
// of the same values, writes meta and removes meta.json. When both are
// present, meta wins.
func TestLegacyMetaMigrates(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "meta.json")
	view := `{"Peers":[{"ID":"n1"}]}`
	if err := os.WriteFile(legacy, []byte(`{"Version":1,"Term":7,"AppliedTerm":6,"View":`+view+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := Meta{Term: 7, AppliedTerm: 6, View: []byte(view)}
	s := openTestStore(t, dir, StoreOptions{})
	if got := s.Meta(); !reflect.DeepEqual(got, want) {
		t.Fatalf("from meta.json: %+v, want %+v", got, want)
	}
	if err := s.SetMeta(want); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("meta.json after the first SetMeta: stat %v, want it removed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash between the publish and the removal leaves both: meta, the
	// newer, wins.
	if err := os.WriteFile(legacy, []byte(`{"Version":1,"Term":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := s2.Meta(); !reflect.DeepEqual(got, want) {
		t.Fatalf("with meta and meta.json: %+v, want meta's %+v", got, want)
	}
}

// FuzzDecodeMeta: the meta decoder may refuse anything, never panics,
// allocates in proportion to its input, and what it accepts re-encodes to
// the same bytes.
func FuzzDecodeMeta(f *testing.F) {
	for _, m := range []Meta{{}, {Term: 1}, {Term: 7, AppliedTerm: 6, View: []byte(`{"Peers":[{"ID":"n1"}]}`)}, {Term: 1 << 62, AppliedTerm: 1 << 40, View: []byte{0}}} {
		rec := encodeMeta(m)
		f.Add(rec)
		f.Add(rec[recordHeaderSize:])
		f.Add(rec[:len(rec)/2])
		f.Add(append(bytes.Clone(rec), rec...))
		for _, bit := range []int{5, 8*recordHeaderSize + 2, 8*len(rec) - 1} {
			flipped := bytes.Clone(rec)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	// A view length that claims more than the payload holds.
	f.Add(framePayload(append([]byte(metaMagic), 1, 7, 6, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a file, and as a payload behind a valid header: a mutated record
		// almost never passes its CRC, so the second form is what lets the
		// fuzzer reach the payload checks.
		for _, in := range [][]byte{data, framePayload(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := decodeMeta(in)
			runtime.ReadMemStats(&after)
			// A decode holds the view and a re-encode; the slack is what the
			// fuzzing process allocates meanwhile.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(in))+64<<10 {
				t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
			}
			if err != nil {
				if !errors.Is(err, ErrMetaCorrupt) {
					t.Fatalf("refusal %v is not ErrMetaCorrupt", err)
				}
				continue
			}
			if again := encodeMeta(m); !bytes.Equal(again, in) {
				t.Fatalf("accepted %x, which re-encodes to %x", in, again)
			}
		}
	})
}
