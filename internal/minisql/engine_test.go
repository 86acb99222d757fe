package minisql

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// execResult is what execSQL returns: a write's counts, or a read's rows.
type execResult struct {
	Rows         [][]Value
	RowsAffected int
	LastInsertID int64
}

// execSQL runs one statement through a handle prepared from its text, as its
// own transaction.
func execSQL(e *Engine, sql string, args ...Value) (*execResult, error) {
	var res *execResult
	_, err := e.TxLogged(func(tx *Tx) error {
		var err error
		res, err = txExecSQL(tx, sql, args...)
		return err
	})
	return res, err
}

// txExecSQL runs one statement through a handle prepared from its text,
// inside tx: a read's rows are copied out, and a COUNT(*) is one row.
func txExecSQL(tx *Tx, sql string, args ...Value) (*execResult, error) {
	h, err := tx.e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	res := &execResult{}
	switch {
	case h.count:
		n, err := tx.Count(h, args...)
		if err != nil {
			return nil, err
		}
		res.Rows = [][]Value{{Int64(int64(n))}}
	case h.query:
		if err := tx.Query(h, args, func(row []Value) error {
			res.Rows = append(res.Rows, slices.Clone(row))
			return nil
		}); err != nil {
			return nil, err
		}
	default:
		r, err := tx.Run(h, args...)
		if err != nil {
			return nil, err
		}
		res.RowsAffected, res.LastInsertID = r.RowsAffected, r.LastInsertID
	}
	return res, nil
}

// txExecRows runs a set-based UPDATE through a handle prepared from its text.
func txExecRows(tx *Tx, sql string, args []Value) ([]int, error) {
	h, err := tx.e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return tx.RunRows(h, args)
}

// ints makes integer arguments.
func ints(ns ...int64) []Value {
	vals := make([]Value, len(ns))
	for i, n := range ns {
		vals[i] = Int64(n)
	}
	return vals
}

func mustExec(t *testing.T, e *Engine, sql string, args ...Value) *execResult {
	t.Helper()
	res, err := execSQL(e, sql, args...)
	if err != nil {
		t.Fatalf("execSQL(%q): %v", sql, err)
	}
	return res
}

func newTaskEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE tasks (
		id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT, score REAL, status TEXT)`)
	return e
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTaskEngine(t)
	res := mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES (?, ?, ?)", Text("a"), Float64(1.5), Text("queued"))
	if res.LastInsertID != 1 {
		t.Fatalf("LastInsertID = %d, want 1", res.LastInsertID)
	}
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('b', 2.5, 'queued'), ('c', 0.5, 'running')")
	sel := mustExec(t, e, "SELECT id, name, score FROM tasks WHERE status = ?", Text("queued"))
	if len(sel.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(sel.Rows))
	}
	if sel.Rows[0][1].AsText() != "a" || sel.Rows[1][1].AsText() != "b" {
		t.Fatalf("unexpected rows: %v", sel.Rows)
	}
	if got := sel.Rows[0]; len(got) != 3 || got[0].AsInt() != 1 {
		t.Fatalf("first row = %v, want id, name and score of task 1", got)
	}
}

func TestSelectStar(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('a', 1, 's')")
	sel := mustExec(t, e, "SELECT * FROM tasks")
	if len(sel.Rows) != 1 || len(sel.Rows[0]) != 4 {
		t.Fatalf("star select shape wrong: rows=%v", sel.Rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	e := newTaskEngine(t)
	for i := 0; i < 10; i++ {
		mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES (?, ?, 'q')", Text(fmt.Sprintf("t%d", i)), Float64(float64(i%5)))
	}
	sel := mustExec(t, e, "SELECT name, score FROM tasks ORDER BY score DESC, name ASC LIMIT 3")
	if len(sel.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(sel.Rows))
	}
	if sel.Rows[0][1].AsFloat() != 4 || sel.Rows[0][0].AsText() != "t4" {
		t.Fatalf("row0 = %v", sel.Rows[0])
	}
	if sel.Rows[1][0].AsText() != "t9" {
		t.Fatalf("row1 = %v (tie break by name failed)", sel.Rows[1])
	}
}

func TestLimitParam(t *testing.T) {
	e := newTaskEngine(t)
	for i := 0; i < 5; i++ {
		mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('x', 0, 'q')")
	}
	sel := mustExec(t, e, "SELECT id FROM tasks LIMIT ?", Int64(2))
	if len(sel.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(sel.Rows))
	}
	sel = mustExec(t, e, "SELECT id FROM tasks LIMIT ?", Int64(0))
	if len(sel.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned rows: %v", sel.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('a', 1, 'queued'), ('b', 2, 'queued')")
	res := mustExec(t, e, "UPDATE tasks SET status = ?, score = ? WHERE name = ?", Text("running"), Float64(9.0), Text("a"))
	if res.RowsAffected != 1 {
		t.Fatalf("update affected %d, want 1", res.RowsAffected)
	}
	sel := mustExec(t, e, "SELECT score FROM tasks WHERE status = 'running'")
	if len(sel.Rows) != 1 || sel.Rows[0][0].AsFloat() != 9 {
		t.Fatalf("after update: %v", sel.Rows)
	}
	res = mustExec(t, e, "DELETE FROM tasks WHERE status = 'queued'")
	if res.RowsAffected != 1 {
		t.Fatalf("delete affected %d, want 1", res.RowsAffected)
	}
	sel = mustExec(t, e, "SELECT COUNT(*) FROM tasks")
	if sel.Rows[0][0].AsInt() != 1 {
		t.Fatalf("count = %v, want 1", sel.Rows[0][0])
	}
}

// TestAggregates: COUNT(*), the one aggregate, answers the number of rows the
// WHERE clause matches.
func TestAggregates(t *testing.T) {
	e := newTaskEngine(t)
	for i := 1; i <= 4; i++ {
		mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('x', ?, ?)", Float64(float64(i)), Text([]string{"q", "r"}[i%2]))
	}
	for where, want := range map[string]int64{
		"":                                   4,
		" WHERE status = 'q'":                2,
		" WHERE status = 'q' AND score = 2":  1,
		" WHERE score IN (1, 2, 3)":          3,
		" WHERE status = 'r' AND name = 'y'": 0,
	} {
		sel := mustExec(t, e, "SELECT COUNT(*) FROM tasks"+where)
		if len(sel.Rows) != 1 || len(sel.Rows[0]) != 1 || sel.Rows[0][0].AsInt() != want {
			t.Errorf("COUNT(*)%s = %v, want [[%d]]", where, sel.Rows, want)
		}
	}
}

func TestAggregateEmpty(t *testing.T) {
	e := newTaskEngine(t)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM tasks",
		"SELECT COUNT(*) FROM tasks WHERE status = 'nope'",
	} {
		sel := mustExec(t, e, sql)
		if len(sel.Rows) != 1 || sel.Rows[0][0].AsInt() != 0 {
			t.Fatalf("%s = %v, want one row holding 0", sql, sel.Rows)
		}
	}
}

func TestWhereOperators(t *testing.T) {
	e := newTaskEngine(t)
	for i := 0; i < 10; i++ {
		mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES (?, ?, 'q')", Text(fmt.Sprintf("t%d", i)), Float64(float64(i)))
	}
	cases := []struct {
		where string
		args  []Value
		want  int
	}{
		{"score = 3", nil, 1},
		{"3 = score", nil, 1},
		{"score = ?", []Value{Int64(7)}, 1},
		{"name = 't3' AND score = 3", nil, 1},
		{"name = 't3' AND score = 4", nil, 0},
		{"status = 'q' AND name = 't2' AND score = 2", nil, 1},
		{"score IN (1, 3, 5, 99)", nil, 3},
		{"name IN (?, ?)", []Value{Text("t0"), Text("t9")}, 2},
		{"score IN (?...)", ints(1, 2, 42), 2},
		{"status = 'q' AND score IN (1, 2)", nil, 2},
	}
	for _, c := range cases {
		sel := mustExec(t, e, "SELECT id FROM tasks WHERE "+c.where, c.args...)
		if len(sel.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(sel.Rows), c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('a', NULL, 'q')")
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('b', 1, 'q')")
	if n := len(mustExec(t, e, "SELECT id FROM tasks WHERE score = 1").Rows); n != 1 {
		t.Fatalf("= with null present: %d rows", n)
	}
	// NULL equals nothing, itself included.
	for where, args := range map[string][]Value{
		"score = NULL":    nil,
		"score = ?":       {Null()},
		"score IN (NULL)": nil,
		"score IN (?...)": {Null()},
	} {
		if n := len(mustExec(t, e, "SELECT id FROM tasks WHERE "+where, args...).Rows); n != 0 {
			t.Fatalf("%s must not match NULL: %d rows", where, n)
		}
	}
}

func TestIndexEqualityMatchesScan(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER, prio INTEGER)")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		mustExec(t, e, "INSERT INTO q (wt, prio) VALUES (?, ?)", Int64(int64(rng.Intn(4))), Int64(int64(rng.Intn(100))))
	}
	// Results with no index.
	noIdx := mustExec(t, e, "SELECT id FROM q WHERE wt = 2 ORDER BY prio DESC, id ASC")
	mustExec(t, e, "CREATE INDEX q_wt ON q (wt)")
	withIdx := mustExec(t, e, "SELECT id FROM q WHERE wt = 2 ORDER BY prio DESC, id ASC")
	if len(noIdx.Rows) != len(withIdx.Rows) {
		t.Fatalf("index changed row count: %d vs %d", len(noIdx.Rows), len(withIdx.Rows))
	}
	for i := range noIdx.Rows {
		if noIdx.Rows[i][0].AsInt() != withIdx.Rows[i][0].AsInt() {
			t.Fatalf("row %d differs: %v vs %v", i, noIdx.Rows[i], withIdx.Rows[i])
		}
	}
}

func TestIndexMaintainedOnUpdateDelete(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER)")
	mustExec(t, e, "CREATE INDEX q_wt ON q (wt)")
	mustExec(t, e, "INSERT INTO q (wt) VALUES (1), (1), (2)")
	mustExec(t, e, "UPDATE q SET wt = 2 WHERE id = 1")
	if n := len(mustExec(t, e, "SELECT id FROM q WHERE wt = 2").Rows); n != 2 {
		t.Fatalf("after update: %d rows with wt=2, want 2", n)
	}
	mustExec(t, e, "DELETE FROM q WHERE wt = 2")
	if n := len(mustExec(t, e, "SELECT id FROM q WHERE wt = 2").Rows); n != 0 {
		t.Fatalf("after delete: %d rows with wt=2, want 0", n)
	}
	if n := len(mustExec(t, e, "SELECT id FROM q WHERE wt = 1").Rows); n != 1 {
		t.Fatalf("after delete: %d rows with wt=1, want 1", n)
	}
}

func TestTransactionRollback(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('keep', 1, 'q')")
	if _, err := e.TxLogged(func(tx *Tx) error {
		for _, sql := range []string{
			"INSERT INTO tasks (name, score, status) VALUES ('drop', 2, 'q')",
			"UPDATE tasks SET score = 99 WHERE name = 'keep'",
			"DELETE FROM tasks WHERE name = 'keep'",
		} {
			if _, err := txExecSQL(tx, sql); err != nil {
				return err
			}
		}
		return errAbort{}
	}); err != (errAbort{}) {
		t.Fatalf("TxLogged = %v, want the callback's error", err)
	}
	sel := mustExec(t, e, "SELECT name, score FROM tasks")
	if len(sel.Rows) != 1 || sel.Rows[0][0].AsText() != "keep" || sel.Rows[0][1].AsFloat() != 1 {
		t.Fatalf("after rollback: %v", sel.Rows)
	}
}

func TestTransactionCommit(t *testing.T) {
	e, w := newHookedEngine(t, "CREATE TABLE tasks (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT, score REAL, status TEXT)")
	tok, err := e.TxLogged(func(tx *Tx) error {
		_, err := txExecSQL(tx, "INSERT INTO tasks (name, score, status) VALUES ('a', 1, 'q')")
		return err
	})
	if err != nil || tok != 1 || w.LastIndex() != 1 || e.LastLogged() != 1 {
		t.Fatalf("TxLogged = token %d, %v; WAL at %d, LastLogged %d; want 1 everywhere", tok, err, w.LastIndex(), e.LastLogged())
	}
	if n := len(mustExec(t, e, "SELECT id FROM tasks").Rows); n != 1 {
		t.Fatalf("after commit: %d rows", n)
	}
	// A transaction that only reads commits nothing and gets no token.
	if tok, err := e.TxLogged(func(tx *Tx) error {
		_, err := txExecSQL(tx, "SELECT id FROM tasks")
		return err
	}); err != nil || tok != 0 || w.LastIndex() != 1 {
		t.Fatalf("read-only TxLogged = token %d, %v; WAL at %d", tok, err, w.LastIndex())
	}
}

func TestTxHelper(t *testing.T) {
	e := newTaskEngine(t)
	_, err := e.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "INSERT INTO tasks (name, score, status) VALUES ('a', 1, 'q')"); err != nil {
			return err
		}
		return fmt.Errorf("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("Tx error = %v", err)
	}
	if n := len(mustExec(t, e, "SELECT id FROM tasks").Rows); n != 0 {
		t.Fatalf("rolled-back Tx left %d rows", n)
	}
	if _, err := e.TxLogged(func(tx *Tx) error {
		_, err := txExecSQL(tx, "INSERT INTO tasks (name, score, status) VALUES ('b', 2, 'q')")
		return err
	}); err != nil {
		t.Fatalf("Tx: %v", err)
	}
	if n := len(mustExec(t, e, "SELECT id FROM tasks").Rows); n != 1 {
		t.Fatalf("committed Tx rows = %d", n)
	}
}

func TestRollbackRestoresIndexes(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER)")
	mustExec(t, e, "CREATE INDEX q_wt ON q (wt)")
	mustExec(t, e, "INSERT INTO q (wt) VALUES (1)")
	if _, err := e.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "UPDATE q SET wt = 5 WHERE wt = 1"); err != nil {
			return err
		}
		return errAbort{}
	}); err == nil {
		t.Fatal("TxLogged should surface the callback's error")
	}
	if n := len(mustExec(t, e, "SELECT id FROM q WHERE wt = 1").Rows); n != 1 {
		t.Fatalf("index lookup after rollback: %d rows, want 1", n)
	}
	if n := len(mustExec(t, e, "SELECT id FROM q WHERE wt = 5").Rows); n != 0 {
		t.Fatalf("stale index entry after rollback: %d rows", n)
	}
}

func TestAutoincrementSkipsProvidedIDs(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "INSERT INTO tasks (id, name, score, status) VALUES (10, 'x', 0, 'q')")
	res := mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('y', 0, 'q')")
	if res.LastInsertID != 11 {
		t.Fatalf("LastInsertID = %d, want 11", res.LastInsertID)
	}
}

func TestErrors(t *testing.T) {
	e := newTaskEngine(t)
	for _, sql := range []string{
		"SELECT * FROM missing",
		"SELECT nope FROM tasks",
		"INSERT INTO tasks (nope) VALUES (1)",
		"SELECT FROM tasks",
		"BOGUS STATEMENT",
		"SELECT * FROM tasks WHERE",
		"INSERT INTO tasks (name) VALUES (?, ?)",
	} {
		if _, err := execSQL(e, sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	// Too few args.
	if _, err := execSQL(e, "SELECT * FROM tasks WHERE name = ?"); err == nil {
		t.Error("missing argument should fail")
	}
}

// TestRemovedSQLRejected pins the grammar to what the EMEWS database issues:
// SQL-text transactions, aggregates other than COUNT(*), OR, IS [NOT] NULL,
// parenthesised conditions and every comparison but `=` are parse errors, and
// none of their words is a keyword.
func TestRemovedSQLRejected(t *testing.T) {
	for _, sql := range []string{
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
		"SELECT MIN(score) FROM tasks",
		"SELECT MAX(score) FROM tasks",
		"SELECT SUM(score) FROM tasks",
		"SELECT COUNT(score) FROM tasks",
		"SELECT COUNT(*), MAX(score) FROM tasks",
		"SELECT id FROM tasks WHERE score = 1 OR score = 2",
		"SELECT id FROM tasks WHERE score IS NULL",
		"SELECT id FROM tasks WHERE score IS NOT NULL",
		"SELECT id FROM tasks WHERE (score = 1)",
		"SELECT id FROM tasks WHERE score != 1",
		"SELECT id FROM tasks WHERE score <> 1",
		"SELECT id FROM tasks WHERE score < 1",
		"SELECT id FROM tasks WHERE score <= 1",
		"SELECT id FROM tasks WHERE score > 1",
		"SELECT id FROM tasks WHERE score >= 1",
		"UPDATE tasks SET status = 'x' WHERE score > ?",
		"DELETE FROM tasks WHERE score < ?",
	} {
		if _, _, _, err := parse(sql); err == nil {
			t.Errorf("parse(%q) succeeded, want a parse error", sql)
		}
	}
	for _, kw := range []string{"BEGIN", "COMMIT", "ROLLBACK", "MIN", "MAX", "SUM", "OR", "IS"} {
		if keywords[kw] {
			t.Errorf("%s is still a keyword", kw)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('it''s', 0, 'q')")
	sel := mustExec(t, e, "SELECT name FROM tasks WHERE name = 'it''s'")
	if len(sel.Rows) != 1 || sel.Rows[0][0].AsText() != "it's" {
		t.Fatalf("escaped string: %v", sel.Rows)
	}
}

func TestTypeCoercion(t *testing.T) {
	e := newTaskEngine(t)
	// Text into REAL column coerces to number; int into TEXT becomes text.
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES (?, ?, 'q')", Int64(42), Text("3.5"))
	sel := mustExec(t, e, "SELECT name, score FROM tasks")
	if sel.Rows[0][0].Kind != KindText || sel.Rows[0][0].AsText() != "42" {
		t.Fatalf("name = %#v", sel.Rows[0][0])
	}
	if sel.Rows[0][1].Kind != KindFloat || sel.Rows[0][1].AsFloat() != 3.5 {
		t.Fatalf("score = %#v", sel.Rows[0][1])
	}
}

func TestSnapshotRestore(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "CREATE INDEX t_status ON tasks (status)")
	for i := 0; i < 20; i++ {
		mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES (?, ?, ?)", Text(fmt.Sprintf("t%d", i)), Float64(float64(i)), Text([]string{"queued", "running"}[i%2]))
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	e2 := NewEngine()
	if err := e2.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	a := mustExec(t, e, "SELECT id, name, score, status FROM tasks ORDER BY id")
	b := mustExec(t, e2, "SELECT id, name, score, status FROM tasks ORDER BY id")
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j].Compare(b.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	// Autoincrement continues after restore.
	res := mustExec(t, e2, "INSERT INTO tasks (name, score, status) VALUES ('new', 0, 'q')")
	if res.LastInsertID != 21 {
		t.Fatalf("LastInsertID after restore = %d, want 21", res.LastInsertID)
	}
	// Index still works after restore.
	if n := len(mustExec(t, e2, "SELECT id FROM tasks WHERE status = 'queued'").Rows); n != 10 {
		t.Fatalf("indexed query after restore: %d rows, want 10", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE c (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	var wg sync.WaitGroup
	const n = 50
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := execSQL(e, "INSERT INTO c (v) VALUES (?)", Int64(int64(g*n+i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := execSQL(e, "SELECT COUNT(*) FROM c"); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sel := mustExec(t, e, "SELECT COUNT(*) FROM c")
	if got := sel.Rows[0][0].AsInt(); got != 8*n {
		t.Fatalf("count = %d, want %d", got, 8*n)
	}
	// All ids unique.
	ids := mustExec(t, e, "SELECT id FROM c")
	seen := map[int64]bool{}
	for _, r := range ids.Rows {
		if seen[r[0].AsInt()] {
			t.Fatalf("duplicate id %d", r[0].AsInt())
		}
		seen[r[0].AsInt()] = true
	}
}

// Property: ORDER BY on the engine sorts identically to sort.Slice on the
// same data, for random int values.
func TestPropertyOrderBy(t *testing.T) {
	f := func(vals []int16) bool {
		e := NewEngine()
		if _, err := execSQL(e, "CREATE TABLE p (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)"); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := execSQL(e, "INSERT INTO p (v) VALUES (?)", Int64(int64(v))); err != nil {
				return false
			}
		}
		res, err := execSQL(e, "SELECT v FROM p ORDER BY v ASC")
		if err != nil {
			return false
		}
		want := append([]int16(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(res.Rows) != len(want) {
			return false
		}
		for i, r := range res.Rows {
			if r[0].AsInt() != int64(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: an indexed equality query returns exactly the rows a linear
// filter over inserted data would, for random (key, value) pairs.
func TestPropertyIndexLookup(t *testing.T) {
	f := func(keys []uint8) bool {
		e := NewEngine()
		if _, err := execSQL(e, "CREATE TABLE p (id INTEGER PRIMARY KEY AUTOINCREMENT, k INTEGER)"); err != nil {
			return false
		}
		if _, err := execSQL(e, "CREATE INDEX p_k ON p (k)"); err != nil {
			return false
		}
		counts := map[int64]int{}
		for _, k := range keys {
			kk := int64(k % 8)
			counts[kk]++
			if _, err := execSQL(e, "INSERT INTO p (k) VALUES (?)", Int64(int64(kk))); err != nil {
				return false
			}
		}
		for k := int64(0); k < 8; k++ {
			res, err := execSQL(e, "SELECT id FROM p WHERE k = ?", Int64(int64(k)))
			if err != nil {
				return false
			}
			if len(res.Rows) != counts[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot→restore is an identity on table contents.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	f := func(vals []int32, texts []string) bool {
		e := NewEngine()
		if _, err := execSQL(e, "CREATE TABLE p (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER, s TEXT)"); err != nil {
			return false
		}
		for i, v := range vals {
			s := ""
			if i < len(texts) {
				s = texts[i]
			}
			if _, err := execSQL(e, "INSERT INTO p (v, s) VALUES (?, ?)", Int64(int64(v)), Text(s)); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			return false
		}
		e2 := NewEngine()
		if err := e2.Restore(&buf); err != nil {
			return false
		}
		a, err1 := execSQL(e, "SELECT id, v, s FROM p ORDER BY id")
		b, err2 := execSQL(e2, "SELECT id, v, s FROM p ORDER BY id")
		if err1 != nil || err2 != nil || len(a.Rows) != len(b.Rows) {
			return false
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j].Compare(b.Rows[i][j]) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int64(1), Int64(2), -1},
		{Int64(2), Int64(2), 0},
		{Float64(2.5), Int64(2), 1},
		{Int64(2), Float64(2.0), 0},
		{Text("a"), Text("b"), -1},
		{Null(), Int64(0), -1},
		{Null(), Null(), 0},
		{Int64(10), Text("10"), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTombstoneCompaction(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	// Queue churn: insert and delete many times; table must stay correct.
	low := make([]Value, 95)
	for i := range low {
		low[i] = Int64(int64(i))
	}
	for round := 0; round < 30; round++ {
		for i := 0; i < 100; i++ {
			mustExec(t, e, "INSERT INTO q (v) VALUES (?)", Int64(int64(i)))
		}
		mustExec(t, e, "DELETE FROM q WHERE v IN (?...)", low...)
	}
	sel := mustExec(t, e, "SELECT COUNT(*) FROM q")
	if got := sel.Rows[0][0].AsInt(); got != 30*5 {
		t.Fatalf("count after churn = %d, want %d", got, 30*5)
	}
}

func TestDropTable(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "DROP TABLE tasks")
	if _, err := execSQL(e, "SELECT * FROM tasks"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	if _, err := execSQL(e, "DROP TABLE tasks"); err == nil {
		t.Fatal("dropping a missing table must error")
	}
	mustExec(t, e, "DROP TABLE IF EXISTS tasks") // no-op succeeds
	// Recreate after drop works.
	mustExec(t, e, "CREATE TABLE tasks (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	res := mustExec(t, e, "INSERT INTO tasks (v) VALUES ('x')")
	if res.LastInsertID != 1 {
		t.Fatalf("fresh table id = %d", res.LastInsertID)
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "CREATE TABLE IF NOT EXISTS tasks (id INTEGER)")
	if _, err := execSQL(e, "CREATE TABLE tasks (id INTEGER)"); err == nil {
		t.Fatal("duplicate CREATE TABLE without IF NOT EXISTS must error")
	}
}

// TestNestedTransactionRejected: SQL text cannot open a transaction, neither
// at top level nor nested inside a TxLogged closure, so none is ever left
// open between calls — the next write from any caller commits on its own
// with its own log entry instead of silently joining someone else's.
func TestNestedTransactionRejected(t *testing.T) {
	e, w := newHookedEngine(t, "CREATE TABLE tasks (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT, score REAL, status TEXT)")
	if _, err := execSQL(e, "BEGIN"); err == nil {
		t.Fatal("BEGIN must be refused")
	}
	if _, err := e.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "BEGIN"); err == nil {
			t.Error("BEGIN inside TxLogged must be refused")
		}
		_, err := txExecSQL(tx, "INSERT INTO tasks (name, score, status) VALUES ('a', 1, 'q')")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('b', 2, 'q')")
	if got := e.LastLogged(); got != 2 || w.LastIndex() != 2 {
		t.Fatalf("after the refused BEGINs: LastLogged %d, WAL at %d; want each write its own entry (2)", got, w.LastIndex())
	}
}

func TestUpdateFromColumnValue(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "INSERT INTO tasks (name, score, status) VALUES ('a', 2, 'q')")
	// SET col = other-col copies within the row.
	mustExec(t, e, "UPDATE tasks SET status = name")
	sel := mustExec(t, e, "SELECT status FROM tasks")
	if sel.Rows[0][0].AsText() != "a" {
		t.Fatalf("status = %v", sel.Rows[0][0])
	}
}

func TestOrderByMissingColumn(t *testing.T) {
	e := newTaskEngine(t)
	if _, err := execSQL(e, "SELECT id FROM tasks ORDER BY nope"); err == nil {
		t.Fatal("ORDER BY unknown column must error")
	}
	if _, err := execSQL(e, "SELECT COUNT(*), id FROM tasks"); err == nil {
		t.Fatal("mixing COUNT(*) and plain columns must error")
	}
}

func TestSemicolonTolerated(t *testing.T) {
	e := newTaskEngine(t)
	mustExec(t, e, "SELECT id FROM tasks;")
	if _, err := execSQL(e, "SELECT id FROM tasks; SELECT id FROM tasks"); err == nil {
		t.Fatal("multiple statements must be rejected")
	}
}
