package minisql

import (
	"bytes"
	"errors"
	"testing"
)

// newHookedEngine returns an engine with a WAL-feeding commit hook installed
// after the schema is created, mirroring how a leader replica wires up.
func newHookedEngine(t *testing.T, schema ...string) (*Engine, *WAL) {
	t.Helper()
	e := NewEngine()
	for _, s := range schema {
		mustExec(t, e, s)
	}
	w := NewWAL(0)
	e.SetCommitHook(func(stmts []Stmt) (uint64, error) { return w.Append(stmts).Index, nil })
	return e, w
}

// entriesSince reads the window the way a follower does: RecordsSince, then
// DecodeRecord on each record, which must consume it whole and agree with
// its index.
func entriesSince(t testing.TB, w *WAL, after uint64) ([]LogEntry, bool) {
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
	mustExec(t, e, "INSERT INTO t (v) VALUES (?)", "a")
	mustExec(t, e, "SELECT * FROM t") // reads are never logged
	mustExec(t, e, "UPDATE t SET v = ? WHERE id = ?", "b", 1)
	mustExec(t, e, "DELETE FROM t WHERE id = ?", 1)

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
		if _, err := tx.Exec("INSERT INTO t (v) VALUES (?)", "x"); err != nil {
			return err
		}
		if _, err := tx.Exec("SELECT COUNT(*) FROM t"); err != nil {
			return err
		}
		_, err := tx.Exec("INSERT INTO t (v) VALUES (?)", "y")
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
		_, _ = tx.Exec("INSERT INTO t (v) VALUES (?)", "discard")
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
	mustExec(t, e, "INSERT INTO t (v) VALUES (?)", "kept")
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
		"autocommit": func() error { _, err := e.Exec(insert, "x"); return err },
		"TxLogged": func() error {
			_, err := e.TxLogged(func(tx *Tx) error {
				_, _ = tx.Exec("UPDATE t SET v = ? WHERE id = ?", "changed", 1)
				_, err := tx.Exec(insert, "x")
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
	res, err := e.Exec(insert, "y")
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

	mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", "a", 1)
	mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", "b", 2)
	if _, err := leader.TxLogged(func(tx *Tx) error {
		if _, err := tx.Exec("UPDATE t SET v = ? WHERE n = ?", "a2", 1); err != nil {
			return err
		}
		_, err := tx.Exec("DELETE FROM t WHERE n = ?", 2)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", "c", 3)

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
	wi := mustExec(t, leader, "INSERT INTO t (v, n) VALUES (?, ?)", "d", 4)
	gi := mustExec(t, follower, "INSERT INTO t (v, n) VALUES (?, ?)", "d", 4)
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

func TestWALCompactAndResume(t *testing.T) {
	w := NewWAL(0)
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
	// A promoted follower continues numbering from its applied index.
	w2 := NewWAL(10)
	if idx := w2.Append([]Stmt{{SQL: "X"}}).Index; idx != 11 {
		t.Fatalf("promoted WAL first index = %d, want 11", idx)
	}
}

// TestRollbackRestoresNextKey: a rolled-back INSERT never reaches the
// statement log, so it must not bump AUTOINCREMENT either — otherwise the
// leader hands out IDs that WAL-replaying followers assign differently.
func TestRollbackRestoresNextKey(t *testing.T) {
	leader, w := newHookedEngine(t, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, leader, "INSERT INTO t (v) VALUES (?)", "keep")

	if _, err := leader.TxLogged(func(tx *Tx) error {
		if _, err := tx.Exec("INSERT INTO t (v) VALUES (?)", "discard"); err != nil {
			return err
		}
		return errAbort{}
	}); err == nil {
		t.Fatal("Tx should surface fn error")
	}

	res := mustExec(t, leader, "INSERT INTO t (v) VALUES (?)", "second")
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
	if _, err := e.Exec("INSERT INTO t (v) VALUES (?), (?, ?)", "a", "b", "c"); err == nil {
		t.Fatal("mismatched row arity should fail")
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if n := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("partial autocommit insert left %d rows", n)
	}
	if got := w.LastIndex(); got != 0 {
		t.Fatalf("failed statement logged: WAL at %d", got)
	}
	ins := mustExec(t, e, "INSERT INTO t (v) VALUES (?)", "ok")
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
		if _, err := tx.Exec("INSERT INTO t (v) VALUES (?)", "good"); err != nil {
			return err
		}
		// Row 1 of this statement succeeds, row 2 has bad arity; the error
		// is swallowed and the tx commits anyway.
		if _, err := tx.Exec("INSERT INTO t (v) VALUES (?), (?, ?)", "p1", "p2", "p3"); err == nil {
			t.Error("mismatched arity should fail")
		}
		_, err := tx.Exec("INSERT INTO t (v) VALUES (?)", "last")
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
				if _, err := e.Exec("INSERT INTO t (v) VALUES (?)", "x"); err != nil {
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
	if _, err := e.Exec("CREATE INDEX t_v ON t (v)"); err == nil {
		t.Fatal("duplicate CREATE INDEX should fail")
	}
	mustExec(t, e, "CREATE INDEX IF NOT EXISTS t_v ON t (v)") // no-op
	mustExec(t, e, "INSERT INTO t (id, v) VALUES (?, ?)", 1, "a")
	res := mustExec(t, e, "SELECT id FROM t WHERE v = ?", "a")
	if len(res.Rows) != 1 {
		t.Fatalf("indexed lookup after IF NOT EXISTS returned %d rows", len(res.Rows))
	}
}
