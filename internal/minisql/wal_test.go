package minisql

import (
	"bytes"
	"errors"
	"testing"
)

// leaderLog returns an in-memory commit log with its window open, as a
// leader's is.
func leaderLog() *Log {
	l := NewLog(nil)
	l.SetWindow(true)
	return l
}

// newHookedEngine returns an engine whose commit hook is a leader's Log,
// installed after the schema is created, mirroring how a leader replica wires
// up.
func newHookedEngine(t *testing.T, schema ...string) (*Engine, *Log) {
	t.Helper()
	e := NewEngine()
	for _, s := range schema {
		mustExec(t, e, s)
	}
	w := leaderLog()
	e.SetCommitHook(w.Append)
	return e, w
}

// entriesSince reads the window the way a follower does: RecordsSince, then
// DecodeRecord on each record, which must consume it whole and agree with
// its index.
func entriesSince(t testing.TB, w *Log, after uint64) ([]LogEntry, bool) {
	t.Helper()
	recs, ok := w.RecordsSince(nil, after)
	out := make([]LogEntry, len(recs))
	for i, r := range recs {
		e, size, err := DecodeRecord(r.Data)
		if err != nil || size != len(r.Data) || e.Index != r.Index {
			t.Fatalf("record %d: decoded index %d, %d of %d bytes, err %v", r.Index, e.Index, size, len(r.Data), err)
		}
		out[i] = e
	}
	return out, ok
}

func TestCommitHookAutocommit(t *testing.T) {
	e, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, e, "INSERT INTO t (v) VALUES (?)", Text("a"))
	mustExec(t, e, "SELECT * FROM t") // reads are never logged
	mustExec(t, e, "UPDATE t SET v = ? WHERE id = ?", Text("b"), Int64(1))
	mustExec(t, e, "DELETE FROM t WHERE id = ?", Int64(1))

	entries, ok := entriesSince(t, w, 0)
	if !ok || len(entries) != 3 {
		t.Fatalf("got %d entries (ok=%v), want 3 autocommit entries", len(entries), ok)
	}
	for i, ent := range entries {
		if ent.Index != uint64(i+1) {
			t.Fatalf("entry %d has index %d, want %d", i, ent.Index, i+1)
		}
		if len(ent.Stmts) != 1 {
			t.Fatalf("autocommit entry %d has %d stmts, want 1", i, len(ent.Stmts))
		}
	}
	if entries[0].Stmts[0].SQL != "INSERT INTO t (v) VALUES (?)" {
		t.Fatalf("unexpected first logged SQL %q", entries[0].Stmts[0].SQL)
	}
	if got := entries[0].Stmts[0].Args[0]; got.AsText() != "a" {
		t.Fatalf("logged arg = %v, want 'a'", got)
	}
}

func TestCommitHookTxBatchesAndRollbackDiscards(t *testing.T) {
	e, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")

	// A committed transaction produces exactly one entry with all mutations.
	_, err := e.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "INSERT INTO t (v) VALUES (?)", Text("x")); err != nil {
			return err
		}
		if _, err := txExecSQL(tx, "SELECT COUNT(*) FROM t"); err != nil {
			return err
		}
		_, err := txExecSQL(tx, "INSERT INTO t (v) VALUES (?)", Text("y"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := entriesSince(t, w, 0)
	if len(entries) != 1 || len(entries[0].Stmts) != 2 {
		t.Fatalf("committed tx logged as %d entries / %d stmts, want 1 entry with 2 stmts",
			len(entries), len(entries[0].Stmts))
	}

	// A rolled-back transaction logs nothing.
	sentinel := errAbort{}
	if _, err := e.TxLogged(func(tx *Tx) error {
		_, _ = txExecSQL(tx, "INSERT INTO t (v) VALUES (?)", Text("discard"))
		return sentinel
	}); err == nil {
		t.Fatal("Tx should surface fn error")
	}
	if got := w.LastIndex(); got != 1 {
		t.Fatalf("WAL advanced to %d after rollback, want 1", got)
	}
}

// TestCommitHookRefusal: a hook that returns an error vetoes the commit on
// every commit path — the batch is undone (AUTOINCREMENT counter included),
// the observer never sees it, and the committing caller gets the hook's error.
func TestCommitHookRefusal(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, e, "INSERT INTO t (v) VALUES (?)", Text("kept"))
	refuse := true
	e.SetCommitHook(func(stmts []Stmt) (uint64, error) {
		if refuse {
			return 0, errAbort{}
		}
		return 7, nil
	})
	observed := 0
	e.SetCommitObserver(func(uint64, []Stmt) { observed++ })

	insert := "INSERT INTO t (v) VALUES (?)"
	commits := map[string]func() error{
		"autocommit": func() error { _, err := execSQL(e, insert, Text("x")); return err },
		"TxLogged": func() error {
			_, err := e.TxLogged(func(tx *Tx) error {
				_, _ = txExecSQL(tx, "UPDATE t SET v = ? WHERE id = ?", Text("changed"), Int64(1))
				_, err := txExecSQL(tx, insert, Text("x"))
				return err
			})
			return err
		},
	}
	for name, commit := range commits {
		if err := commit(); !errors.Is(err, errAbort{}) {
			t.Fatalf("%s under a refusing hook = %v, want the hook's error", name, err)
		}
		res := mustExec(t, e, "SELECT id, v FROM t")
		if len(res.Rows) != 1 || res.Rows[0][1].AsText() != "kept" {
			t.Fatalf("%s: refused commit left rows %v", name, res.Rows)
		}
	}
	if observed != 0 || e.LastLogged() != 0 {
		t.Fatalf("refused commits reached the observer %d times, LastLogged %d", observed, e.LastLogged())
	}
	refuse = false
	res, err := execSQL(e, insert, Text("y"))
	if tok := e.LastLogged(); err != nil || tok != 7 || res.LastInsertID != 2 || observed != 1 {
		t.Fatalf("accepted commit = id %d token %d observed %d, %v; want id 2 (counter restored), token 7, 1",
			res.LastInsertID, tok, observed, err)
	}
}

type errAbort struct{}

func (errAbort) Error() string { return "abort" }

// TestApplyEntryReplayEquivalence replays a leader's WAL on a follower engine
// that starts from the same schema and checks the states converge.
func TestApplyEntryReplayEquivalence(t *testing.T) {
	schema := []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT, n INTEGER)",
		"CREATE INDEX t_n ON t (n)",
	}
	leader, w := newHookedEngine(t, schema...)

	mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", Text("a"), Int64(1))
	mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", Text("b"), Int64(2))
	if _, err := leader.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "UPDATE t SET v = ? WHERE n = ?", Text("a2"), Int64(1)); err != nil {
			return err
		}
		_, err := txExecSQL(tx, "DELETE FROM t WHERE n = ?", Int64(2))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", Text("c"), Int64(3))

	follower := NewEngine()
	for _, s := range schema {
		mustExec(t, follower, s)
	}
	entries, ok := entriesSince(t, w, 0)
	if !ok {
		t.Fatal("RecordsSince(0) not ok")
	}
	for _, ent := range entries {
		if err := follower.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}

	const q = "SELECT id, v, n FROM t ORDER BY id ASC"
	want := mustExec(t, leader, q)
	got := mustExec(t, follower, q)
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("follower has %d rows, leader %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j].Compare(got.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: leader %v follower %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}

	// AUTOINCREMENT state converged too: next insert gets the same key.
	wi := mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", Text("d"), Int64(4))
	gi := mustExec(t, follower, "INSERT INTO t (v, n) VALUES (?, ?)", Text("d"), Int64(4))
	if wi.LastInsertID != gi.LastInsertID {
		t.Fatalf("diverged autoincrement: leader %d follower %d", wi.LastInsertID, gi.LastInsertID)
	}
}

// TestApplyEntrySuppressesHookAndIsAtomic checks a replica's own hook never
// re-records shipped entries, and a failing entry rolls back completely.
func TestApplyEntrySuppressesHookAndIsAtomic(t *testing.T) {
	e, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")

	good := LogEntry{Index: 1, Stmts: []Stmt{
		{SQL: "INSERT INTO t (v) VALUES (?)", Args: []Value{Text("x")}},
	}}
	if err := e.ApplyEntry(good); err != nil {
		t.Fatal(err)
	}
	if got := w.LastIndex(); got != 0 {
		t.Fatalf("hook fired during ApplyEntry: WAL at %d", got)
	}

	bad := LogEntry{Index: 2, Stmts: []Stmt{
		{SQL: "INSERT INTO t (v) VALUES (?)", Args: []Value{Text("y")}},
		{SQL: "INSERT INTO missing (v) VALUES (?)", Args: []Value{Text("z")}},
	}}
	if err := e.ApplyEntry(bad); err == nil {
		t.Fatal("ApplyEntry of bad batch should fail")
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if n := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("partial entry visible: %d rows, want 1", n)
	}
}

func TestLogCompactAndResume(t *testing.T) {
	w := leaderLog()
	for i := 0; i < 10; i++ {
		w.Append([]Stmt{{SQL: "INSERT"}})
	}
	w.Compact(6)
	if _, ok := w.RecordsSince(nil, 3); ok {
		t.Fatal("RecordsSince before compacted base should demand a snapshot")
	}
	recs, ok := w.RecordsSince(nil, 6)
	if !ok || len(recs) != 4 || recs[0].Index != 7 {
		t.Fatalf("post-compact resume broken: ok=%v len=%d", ok, len(recs))
	}
	if w.LastIndex() != 10 {
		t.Fatalf("LastIndex = %d after compact, want 10", w.LastIndex())
	}
	// A promoted follower's log ends at its applied index, so leading
	// continues the numbering from there.
	fol := NewLog(nil)
	for i := uint64(1); i <= 10; i++ {
		if err := fol.AppendRecord(Record{Index: i, Data: EncodeRecord(nil, LogEntry{Index: i})}); err != nil {
			t.Fatal(err)
		}
	}
	fol.SetWindow(true)
	if idx, err := fol.Append([]Stmt{{SQL: "X"}}); idx != 11 || err != nil {
		t.Fatalf("promoted log first index = %d (%v), want 11", idx, err)
	}
	if recs, ok := fol.RecordsSince(nil, 10); !ok || len(recs) != 1 || recs[0].Index != 11 {
		t.Fatalf("promoted log's window = %v (ok=%v), want entry 11", recs, ok)
	}
}

// TestLogInMemoryBelowWindow: an in-memory log holds nothing below its
// window. A closed window starts at the log's end, and a snapshot install
// restarts the log past its index.
func TestLogInMemoryBelowWindow(t *testing.T) {
	l := NewLog(nil)
	for i := 0; i < 3; i++ {
		l.Append([]Stmt{{SQL: "INSERT"}})
	}
	if _, ok := l.RecordsSince(nil, 2); ok {
		t.Fatal("a closed in-memory log served records it never kept")
	}
	if recs, ok := l.RecordsSince(nil, 3); !ok || len(recs) != 0 {
		t.Fatalf("RecordsSince(last) = %v (ok=%v), want none, ok", recs, ok)
	}
	if err := l.InstallSnapshot(bytes.NewReader(nil), 40, drain); err != nil {
		t.Fatal(err)
	}
	l.SetWindow(true)
	if idx, _ := l.Append([]Stmt{{SQL: "INSERT"}}); idx != 41 {
		t.Fatalf("first index after an install at 40 = %d, want 41", idx)
	}
	if _, ok := l.RecordsSince(nil, 39); ok {
		t.Fatal("RecordsSince below the window of an in-memory log should demand a snapshot")
	}
}

// TestLogRecordsStraddleWindowAndDisk: on a durable log the window and the
// segments answer a range read as one. Below the window the segments serve
// every record to the log's end, byte for byte what the window held; below
// the checkpoint-truncated base the log demands a snapshot.
func TestLogRecordsStraddleWindowAndDisk(t *testing.T) {
	s := openTestStore(t, t.TempDir(), StoreOptions{SegmentBytes: 256, CheckpointEvery: -1})
	defer s.Close()
	l := NewLog(s)
	for i := 0; i < 10; i++ {
		l.Append(testEntry(1).Stmts) // before the window: on disk only
	}
	l.SetWindow(true)
	for i := 0; i < 30; i++ {
		l.Append(testEntry(1).Stmts)
	}
	window, _ := l.RecordsSince(nil, 10)
	l.Compact(25)
	recs, ok := l.RecordsSince(nil, 4)
	if !ok || len(recs) != 36 {
		t.Fatalf("RecordsSince(4) across window and disk = %d records (ok=%v), want 36", len(recs), ok)
	}
	for i, r := range recs {
		if r.Index != uint64(5+i) {
			t.Fatalf("record %d has index %d, want %d", i, r.Index, 5+i)
		}
		if r.Index > 10 && !bytes.Equal(r.Data, window[r.Index-11].Data) {
			t.Fatalf("disk record %d differs from the window's copy", r.Index)
		}
	}
	if recs, ok := l.RecordsSince(nil, 30); !ok || len(recs) != 10 || recs[0].Index != 31 {
		t.Fatalf("RecordsSince(30) from the window = %d records (ok=%v)", len(recs), ok)
	}

	// A checkpoint at 20 followed by one at 40 truncates the segments at 20.
	src := &fakeSource{}
	s.SetSnapshotSource(src.snapshot)
	for _, idx := range []uint64{20, 40} {
		src.idx.Store(idx)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Log.Truncated == 0 {
		t.Fatal("segments did not roll; nothing truncated")
	}
	if l.Reaches(4) {
		t.Fatal("Reaches(4) past the truncated segments")
	}
	if _, ok := l.RecordsSince(nil, 4); ok {
		t.Fatal("RecordsSince below the truncated base should demand a snapshot")
	}
	if !l.Reaches(20) {
		t.Fatal("Reaches(20) false with the segments holding 21 on")
	}
}

// TestLogConcurrentReadsContiguous races appends, compactions and range
// reads from both below and inside the window of a durable log: whatever a
// read returns runs contiguously from after+1. Run with -race.
func TestLogConcurrentReadsContiguous(t *testing.T) {
	s := openTestStore(t, t.TempDir(), StoreOptions{SegmentBytes: 512, CheckpointEvery: -1})
	defer s.Close()
	l := NewLog(s)
	l.SetWindow(true)
	const n = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if _, err := l.Append(testEntry(1).Stmts); err != nil {
				t.Error(err)
				return
			}
			if i%7 == 0 {
				l.Compact(l.LastIndex() - 3)
			}
		}
	}()
	var dst []Record
	reads := 0
	for {
		select {
		case <-done:
			if reads == 0 {
				t.Fatal("no read overlapped the appends")
			}
			return
		default:
		}
		last := l.LastIndex()
		for _, after := range []uint64{0, last / 2, last} {
			recs, ok := l.RecordsSince(dst[:0], after)
			if !ok {
				t.Fatalf("RecordsSince(%d) not ok on a log whose segments reach back to 0", after)
			}
			for i, r := range recs {
				if r.Index != after+1+uint64(i) {
					t.Fatalf("RecordsSince(%d)[%d] has index %d: not contiguous", after, i, r.Index)
				}
			}
			dst = recs
			reads++
		}
	}
}

// TestLogAppendAllocs pins what an append costs: nothing when the log keeps
// no window (a standalone node, durable or not), one allocation — the
// window's copy of the record — when it leads.
func TestLogAppendAllocs(t *testing.T) {
	stmts := testEntry(1).Stmts
	s := openTestStore(t, t.TempDir(), StoreOptions{CheckpointEvery: -1})
	defer s.Close()
	for _, c := range []struct {
		name   string
		log    *Log
		window bool
		want   float64
	}{
		{"in-memory", NewLog(nil), false, 0},
		{"durable", NewLog(s), false, 0},
		{"leading", NewLog(nil), true, 1},
	} {
		if c.window {
			c.log.SetWindow(true)
		}
		c.log.Append(stmts) // grow the encode buffer
		if got := testing.AllocsPerRun(1000, func() { c.log.Append(stmts) }); got > c.want {
			t.Errorf("%s Append allocates %v per call, want <= %v", c.name, got, c.want)
		}
	}
}

// TestRollbackRestoresNextKey: a rolled-back INSERT never reaches the
// statement log, so it must not bump AUTOINCREMENT either — otherwise the
// leader hands out IDs that WAL-replaying followers assign differently.
func TestRollbackRestoresNextKey(t *testing.T) {
	leader, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, leader, "INSERT INTO t (v) VALUES (?)", Text("keep"))

	if _, err := leader.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "INSERT INTO t (v) VALUES (?)", Text("discard")); err != nil {
			return err
		}
		return errAbort{}
	}); err == nil {
		t.Fatal("Tx should surface fn error")
	}

	res := mustExec(t, leader, "INSERT INTO t (v) VALUES (?)", Text("second"))
	if res.LastInsertID != 2 {
		t.Fatalf("leader id after rollback = %d, want 2", res.LastInsertID)
	}

	// The follower replaying the log must assign the same ID.
	follower := NewEngine()
	mustExec(t, follower, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	entries, _ := entriesSince(t, w, 0)
	for _, ent := range entries {
		if err := follower.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}
	fres := mustExec(t, follower, "SELECT id, v FROM t ORDER BY id ASC")
	lres := mustExec(t, leader, "SELECT id, v FROM t ORDER BY id ASC")
	if len(fres.Rows) != len(lres.Rows) {
		t.Fatalf("follower %d rows, leader %d", len(fres.Rows), len(lres.Rows))
	}
	for i := range lres.Rows {
		if lres.Rows[i][0].AsInt() != fres.Rows[i][0].AsInt() {
			t.Fatalf("row %d: leader id %d, follower id %d",
				i, lres.Rows[i][0].AsInt(), fres.Rows[i][0].AsInt())
		}
	}
}

// TestAutocommitInsertAtomic: a multi-row INSERT failing part-way in
// autocommit mode must leave no rows (and no AUTOINCREMENT bump) behind —
// partial effects would be invisible to the statement log.
func TestAutocommitInsertAtomic(t *testing.T) {
	e, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	if _, err := execSQL(e, "INSERT INTO t (v) VALUES (?), (?, ?)", Text("a"), Text("b"), Text("c")); err == nil {
		t.Fatal("mismatched row arity should fail")
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if n := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("partial autocommit insert left %d rows", n)
	}
	if got := w.LastIndex(); got != 0 {
		t.Fatalf("failed statement logged: WAL at %d", got)
	}
	ins := mustExec(t, e, "INSERT INTO t (v) VALUES (?)", Text("ok"))
	if ins.LastInsertID != 1 {
		t.Fatalf("id after failed insert = %d, want 1", ins.LastInsertID)
	}
}

// TestTxStatementAtomic: a statement failing part-way inside a transaction
// unwinds just that statement, so a callback that swallows the error and
// commits persists exactly what the statement log records.
func TestTxStatementAtomic(t *testing.T) {
	leader, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	if _, err := leader.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "INSERT INTO t (v) VALUES (?)", Text("good")); err != nil {
			return err
		}
		// Row 1 of this statement succeeds, row 2 has bad arity; the error
		// is swallowed and the tx commits anyway.
		if _, err := txExecSQL(tx, "INSERT INTO t (v) VALUES (?), (?, ?)", Text("p1"), Text("p2"), Text("p3")); err == nil {
			t.Error("mismatched arity should fail")
		}
		_, err := txExecSQL(tx, "INSERT INTO t (v) VALUES (?)", Text("last"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, leader, "SELECT id, v FROM t ORDER BY id ASC")
	if len(res.Rows) != 2 {
		t.Fatalf("leader kept %d rows, want 2 (failed statement fully unwound)", len(res.Rows))
	}
	if res.Rows[1][0].AsInt() != 2 {
		t.Fatalf("second committed row id = %d, want 2 (nextKey unwound)", res.Rows[1][0].AsInt())
	}

	// A replaying follower lands on the identical state.
	follower := NewEngine()
	mustExec(t, follower, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	entries, _ := entriesSince(t, w, 0)
	for _, ent := range entries {
		if err := follower.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}
	fres := mustExec(t, follower, "SELECT id, v FROM t ORDER BY id ASC")
	if len(fres.Rows) != 2 || fres.Rows[1][0].AsInt() != 2 {
		t.Fatalf("follower diverged: %d rows, last id %v", len(fres.Rows), fres.Rows)
	}
}

// TestSnapshotWithObservesUnderLock: the observation callback sees the WAL
// index the snapshot corresponds to, even with writers racing.
func TestSnapshotWithObservesUnderLock(t *testing.T) {
	e, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := execSQL(e, "INSERT INTO t (v) VALUES (?)", Text("x")); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		var idx uint64
		if err := e.SnapshotWith(&buf, func() { idx = w.LastIndex() }); err != nil {
			t.Fatal(err)
		}
		// Replaying entries > idx onto the snapshot must be gap-free: entry
		// idx+1 exists whenever any entry past the snapshot exists.
		if entries, ok := entriesSince(t, w, idx); ok && len(entries) > 0 && entries[0].Index != idx+1 {
			t.Fatalf("snapshot index %d inconsistent: next entry %d", idx, entries[0].Index)
		}
	}
	close(stop)
	<-done
}

func TestCreateIndexIfNotExists(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER, v TEXT)")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	if _, err := execSQL(e, "CREATE INDEX t_v ON t (v)"); err == nil {
		t.Fatal("duplicate CREATE INDEX should fail")
	}
	mustExec(t, e, "CREATE INDEX IF NOT EXISTS t_v ON t (v)") // no-op
	mustExec(t, e, "INSERT INTO t (id, v) VALUES (?, ?)", Int64(1), Text("a"))
	res := mustExec(t, e, "SELECT id FROM t WHERE v = ?", Text("a"))
	if len(res.Rows) != 1 {
		t.Fatalf("indexed lookup after IF NOT EXISTS returned %d rows", len(res.Rows))
	}
}

// TestCommitAllocatesOnlyRows pins what a committed transaction allocates
// with a commit hook and an observer installed: the rows it stores and
// nothing else. The prepared writes' arguments, the pending statements and
// the undo log are engine buffers the hook and the observer borrow.
func TestCommitAllocatesOnlyRows(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT, n INTEGER)")
	e.SetCommitHook(NewLog(nil).Append)
	seen := 0
	e.SetCommitObserver(func(_ uint64, stmts []Stmt) {
		for _, s := range stmts {
			seen += len(s.Args)
		}
	})
	h, err := e.Prepare("INSERT INTO t (v, n) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	commit := func() {
		if _, err := e.TxLogged(func(tx *Tx) error {
			n++
			if _, err := tx.Run(h, Text("a"), Int64(n)); err != nil {
				return err
			}
			_, err := tx.Run(h, Text("b"), Int64(-n))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit() // grow the engine's buffers
	if got := testing.AllocsPerRun(1000, commit); got > 2 {
		t.Fatalf("a transaction of 2 prepared INSERTs allocates %v, want its 2 rows", got)
	}
	if want := 4 * int(n); seen != want {
		t.Fatalf("the observer saw %d arguments over %d commits, want %d", seen, n, want)
	}
}

// TestHugeTransactionReleasesBuffers: the buffers a transaction leaves for
// the next one — its pending statements, their arguments and the undo log —
// are kept at an ordinary size and released once a huge transaction grew
// them past keepBuffered, whether it committed or rolled back.
func TestHugeTransactionReleasesBuffers(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	e.SetCommitHook(NewLog(nil).Append)
	h, err := e.Prepare("INSERT INTO t (v) VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(rows int, fail error) {
		t.Helper()
		_, err := e.TxLogged(func(tx *Tx) error {
			for i := 0; i < rows; i++ {
				if _, err := tx.Run(h, Int64(int64(i))); err != nil {
					return err
				}
			}
			return fail
		})
		if !errors.Is(err, fail) {
			t.Fatalf("TxLogged of %d rows = %v, want %v", rows, err, fail)
		}
	}
	caps := func() []int {
		return []int{cap(e.pending), cap(e.pendArgs), cap(e.undo)}
	}
	insert(10, nil)
	for i, c := range caps() {
		if c == 0 {
			t.Fatalf("buffer %d of an ordinary transaction was not kept: caps %v", i, caps())
		}
	}
	for _, fail := range []error{nil, errAbort{}} {
		insert(keepBuffered+1, fail)
		for i, c := range caps() {
			if c > keepBuffered {
				t.Fatalf("after %d rows (error %v) buffer %d keeps capacity %d, over the bound %d", keepBuffered+1, fail, i, c, keepBuffered)
			}
		}
		insert(10, nil)
	}
	if got := e.TableRows("t"); got != 30+keepBuffered+1 {
		t.Fatalf("%d rows, want %d", got, 30+keepBuffered+1)
	}
}
