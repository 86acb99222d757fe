package minisql

import (
	"bytes"
	"encoding/gob"
	"io"
	"sync"
	"testing"
	"time"
)

// TestSnapshotPreservesIndexesAndNextKey pins down the gob fields that had no
// direct coverage: secondary index definitions and the AUTOINCREMENT nextKey
// must survive a snapshot round trip, or a restored replica would serve
// unindexed scans and hand out duplicate task ids.
func TestSnapshotPreservesIndexesAndNextKey(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER, v TEXT)")
	mustExec(t, e, "CREATE INDEX t_wt ON t (wt)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, "INSERT INTO t (wt, v) VALUES (?, ?)", i%2, "x")
	}
	// Delete the highest row so nextKey (6) is ahead of the max stored id (4):
	// only the persisted nextKey field can restore it correctly.
	mustExec(t, e, "DELETE FROM t WHERE id = ?", 5)

	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	e2 := NewEngine()
	if err := e2.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	t2 := e2.tables["t"]
	if t2 == nil {
		t.Fatal("restored engine lost table t")
	}
	if _, ok := t2.indexes["wt"]; !ok {
		t.Fatal("restored engine lost the secondary index on wt")
	}
	if _, ok := t2.indexes["id"]; !ok {
		t.Fatal("restored engine lost the primary-key index on id")
	}
	if t2.nextKey != 6 {
		t.Fatalf("restored nextKey = %d, want 6", t2.nextKey)
	}

	// The restored index actually answers queries.
	res := mustExec(t, e2, "SELECT id FROM t WHERE wt = ?", 1)
	if len(res.Rows) != 2 {
		t.Fatalf("indexed lookup on restored engine returned %d rows, want 2", len(res.Rows))
	}

	// AUTOINCREMENT continues where the source left off.
	ins := mustExec(t, e2, "INSERT INTO t (wt, v) VALUES (?, ?)", 0, "new")
	if ins.LastInsertID != 6 {
		t.Fatalf("restored engine allocated id %d, want 6", ins.LastInsertID)
	}
}

// TestRestoredEngineReplaysWAL is the replication bootstrap path in miniature:
// snapshot at index N, then replay WAL entries > N, must equal the source.
func TestRestoredEngineReplaysWAL(t *testing.T) {
	src, w := newHookedEngine(t,
		"CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", "before-1")
	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", "before-2")

	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	snapIndex := w.LastIndex()

	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", "after-1")
	mustExec(t, src, "UPDATE t SET v = ? WHERE id = ?", "rewritten", 1)

	replica := NewEngine()
	if err := replica.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	entries, ok := entriesSince(t, w, snapIndex)
	if !ok || len(entries) != 2 {
		t.Fatalf("RecordsSince(%d): ok=%v len=%d, want 2", snapIndex, ok, len(entries))
	}
	for _, ent := range entries {
		if err := replica.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}

	const q = "SELECT id, v FROM t ORDER BY id ASC"
	want, got := mustExec(t, src, q), mustExec(t, replica, q)
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("replica has %d rows, source %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j].Compare(got.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: source %v replica %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

// TestRestoreRejectsMalformedSnapshot: a snapshot that gob can decode but that
// does not describe a database — damaged on disk, or sent by a broken leader —
// is refused with an error. Restore used to trust it and panic while building
// indexes, so Store.Recover never reached the older checkpoint.
func TestRestoreRejectsMalformedSnapshot(t *testing.T) {
	cols := []ColumnDef{
		{Name: "id", Type: TypeInteger, PrimaryKey: true, AutoInc: true},
		{Name: "v", Type: TypeText},
	}
	row := func(vs ...Value) []snapValue {
		out := make([]snapValue, len(vs))
		for i, v := range vs {
			out[i] = snapValue(v)
		}
		return out
	}
	good := snapTable{Name: "t", Cols: cols, NextKey: 2, Indexes: []string{"id", "v"},
		Rows: [][]snapValue{row(Int64(1), Text("a"))}}
	with := func(edit func(*snapTable)) []snapTable {
		st := good
		edit(&st)
		return []snapTable{st}
	}
	cases := []struct {
		name   string
		tables []snapTable
	}{
		{"short row under an index on the missing column", with(func(st *snapTable) {
			st.Rows = [][]snapValue{row(Int64(1))}
		})},
		{"short row under the primary key only", with(func(st *snapTable) {
			st.Indexes, st.Rows = nil, [][]snapValue{{}}
		})},
		{"long row", with(func(st *snapTable) {
			st.Rows = [][]snapValue{row(Int64(1), Text("a"), Text("b"))}
		})},
		{"index on a column the table lacks", with(func(st *snapTable) { st.Indexes = []string{"w"} })},
		{"ordered index on a column the table lacks", with(func(st *snapTable) { st.Ordered = []string{"v,w"} })},
		{"duplicate column", with(func(st *snapTable) { st.Cols = append(cols[:2:2], cols[1]) })},
		{"duplicate table", []snapTable{good, good}},
		{"NextKey below a stored key", with(func(st *snapTable) { st.NextKey = 1 })},
		{"unknown value kind", with(func(st *snapTable) {
			st.Rows = [][]snapValue{{snapValue(Int64(1)), {Kind: 9}}}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&snapDB{Version: 1, Tables: tc.tables}); err != nil {
				t.Fatal(err)
			}
			e := NewEngine()
			mustExec(t, e, "CREATE TABLE keep (id INTEGER)")
			if err := e.Restore(&buf); err == nil {
				t.Fatal("Restore accepted the snapshot")
			}
			if _, ok := e.tables["keep"]; !ok {
				t.Fatal("a refused Restore replaced the engine's tables")
			}
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snapDB{Version: 1, Tables: []snapTable{good}}); err != nil {
		t.Fatal(err)
	}
	if err := NewEngine().Restore(&buf); err != nil {
		t.Fatalf("Restore refused the well-formed control: %v", err)
	}
}

// taskLikeEngine returns an engine with a log and a table shaped like the task
// table (a key, indexed and ordered columns, a text payload) holding n rows.
func taskLikeEngine(t testing.TB, n int) (*Engine, *WAL) {
	t.Helper()
	e := NewEngine()
	for _, s := range []string{
		"CREATE TABLE tasks (id INTEGER PRIMARY KEY AUTOINCREMENT, exp TEXT, wt INTEGER, status INTEGER, prio INTEGER, payload TEXT, result TEXT)",
		"CREATE INDEX tasks_exp ON tasks (exp)",
		"CREATE ORDERED INDEX tasks_prio ON tasks (prio, id)",
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.TxLogged(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tx.Exec("INSERT INTO tasks (exp, wt, status, prio, payload) VALUES (?, ?, ?, ?, ?)",
				"exp", i%3, 0, i%17, `{"x": [0.25, 0.5, 0.75], "seed": 12345}`); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWAL(0)
	e.SetCommitHook(func(stmts []Stmt) (uint64, error) { return w.Append(stmts).Index, nil })
	return e, w
}

// parkedWriter buffers a snapshot but blocks its first Write until released:
// the position of a checkpoint file on a slow disk, or a follower's socket.
type parkedWriter struct {
	bytes.Buffer
	entered, release chan struct{}
	once             sync.Once
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.Buffer.Write(p)
}

// TestSnapshotDoesNotBlockCommits: the engine lock covers the capture, not the
// encode. With the snapshot's writer parked, commits of every kind complete;
// the snapshot still is the state at the index it observed, so restoring it
// and replaying the log from there equals the live engine byte for byte.
func TestSnapshotDoesNotBlockCommits(t *testing.T) {
	e, w := taskLikeEngine(t, 20000)
	pw := &parkedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	var idx uint64
	snapDone := make(chan error, 1)
	go func() { snapDone <- e.SnapshotWith(pw, func() { idx = w.LastIndex() }) }()
	<-pw.entered

	commits := make(chan error, 1)
	go func() {
		for i := 1; i <= 200; i++ {
			var err error
			switch i % 4 {
			case 0:
				_, err = e.Exec("INSERT INTO tasks (exp, wt, status, prio, payload) VALUES (?, ?, ?, ?, ?)", "late", 1, 0, i, "p")
			case 1:
				_, err = e.Exec("UPDATE tasks SET status = ?, result = ? WHERE id = ?", 2, "done", i*7)
			case 2:
				_, err = e.Exec("UPDATE tasks SET prio = ? WHERE exp = ? AND wt = ?", i, "late", 1)
			case 3:
				_, err = e.Exec("DELETE FROM tasks WHERE id = ?", i*11)
			}
			if err != nil {
				commits <- err
				return
			}
		}
		commits <- nil
	}()
	select {
	case err := <-commits:
		if err != nil {
			t.Fatalf("commit beside a parked snapshot: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("commits are parked behind the snapshot's writer")
	}
	close(pw.release)
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}

	replica := NewEngine()
	if err := replica.Restore(&pw.Buffer); err != nil {
		t.Fatal(err)
	}
	entries, ok := entriesSince(t, w, idx)
	if !ok || len(entries) != 200 {
		t.Fatalf("log after the observed index %d: ok=%v, %d entries, want the 200 commits made beside the snapshot", idx, ok, len(entries))
	}
	for _, ent := range entries {
		if err := replica.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}
	var live, replayed bytes.Buffer
	if err := e.Snapshot(&live); err != nil {
		t.Fatal(err)
	}
	if err := replica.Snapshot(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("snapshot + replay diverges from the live engine (%d vs %d bytes)", replayed.Len(), live.Len())
	}
}

// TestSnapshotLockHoldIsCapture: at 20 000 rows the engine lock is held for a
// small part of a snapshot — the pointer copy — however long the encode takes.
func TestSnapshotLockHoldIsCapture(t *testing.T) {
	e, _ := taskLikeEngine(t, 20000)
	var held time.Duration
	e.SetSnapshotObserver(func(d time.Duration) { held = d })
	// The ratio is the claim; the best of a few tries keeps a scheduling
	// hiccup inside the short locked part from failing it.
	best := 1.0
	for try := 0; try < 5 && best > 1.0/8; try++ {
		t0 := time.Now()
		if err := e.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
		whole := time.Since(t0)
		t.Logf("snapshot %v, engine lock held %v", whole, held)
		best = min(best, float64(held)/float64(whole))
	}
	if best > 1.0/8 {
		t.Fatalf("engine lock held for %.0f%% of the snapshot, want at most 1/8", 100*best)
	}
}

// FuzzRestoreSnapshot: a checkpoint file or a leader's bootstrap frame is
// bytes from outside. Restore may refuse them but must not panic, and an
// engine it did build must be whole enough to snapshot again.
func FuzzRestoreSnapshot(f *testing.F) {
	e, _ := taskLikeEngine(f, 40)
	for i := 1; i <= 60; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = e.Exec("UPDATE tasks SET status = ?, result = ?, prio = ? WHERE id = ?", 2, 0.5, nil, i/2)
		case 1:
			_, err = e.Exec("DELETE FROM tasks WHERE id = ?", i/3)
		case 2:
			_, err = e.Exec("INSERT INTO tasks (exp, prio) VALUES (?, ?)", "churn", i)
		}
		if err != nil {
			f.Fatal(err)
		}
		if i%20 != 0 {
			continue
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		snap := buf.Bytes()
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
		f.Add(snap[:len(snap)-1])
		for _, at := range []int{len(snap) / 7, len(snap) / 3, len(snap) - 9} {
			flipped := bytes.Clone(snap)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		if err := e.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		if err := e.Snapshot(io.Discard); err != nil {
			t.Fatalf("restored engine cannot snapshot: %v", err)
		}
	})
}
