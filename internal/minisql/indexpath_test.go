package minisql

import (
	"fmt"
	"testing"
)

// boundOf prepares a statement and returns its plan bound to e's schema.
func boundOf(t *testing.T, e *Engine, sql string) *bound {
	t.Helper()
	h, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.bindLocked(h)
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b
}

// TestPlanCandidatesIndexedMiss: a probe of an indexed column that matches
// nothing is an empty candidate set from the index, not a request for a scan.
func TestPlanCandidatesIndexedMiss(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 1; i <= 50; i++ {
		mustExec(t, e, "INSERT INTO q (id, v) VALUES (?, ?)", Int64(int64(i)), Text(fmt.Sprint("v", i)))
	}
	for _, tc := range []struct {
		sql     string
		args    []Value
		spreadN int
		indexed bool
		ids     string
	}{
		{"SELECT v FROM q WHERE id = ?", []Value{Int64(999)}, 0, true, "[]"},
		{"SELECT v FROM q WHERE id IN (777, 888)", nil, 0, true, "[]"},
		{"SELECT v FROM q WHERE id IN (?...)", ints(777, 888, 999), 3, true, "[]"},
		{"SELECT v FROM q WHERE id IN (?...)", nil, 0, true, "[]"},
		{"SELECT v FROM q WHERE v = 'v1' AND id = ?", []Value{Int64(999)}, 0, true, "[]"},
		// Hits keep working, ascending and without duplicates.
		{"SELECT v FROM q WHERE id = ?", []Value{Int64(7)}, 0, true, "[6]"},
		{"SELECT v FROM q WHERE id IN (?...)", ints(9, 3, 9, 999), 4, true, "[2 8]"},
		// No index on v: the scan is still asked for.
		{"SELECT v FROM q WHERE v = ?", []Value{Text("nope")}, 0, false, "[]"},
	} {
		b := boundOf(t, e, tc.sql)
		ev := &evalCtx{args: tc.args, spreadN: tc.spreadN}
		ids, indexed, err := b.probe.candidates([]int64{}, ev)
		if err != nil {
			t.Fatal(err)
		}
		if indexed != tc.indexed || fmt.Sprint(ids) != tc.ids {
			t.Errorf("%s %v: candidates %v indexed %v, want %s indexed %v",
				tc.sql, tc.args, ids, indexed, tc.ids, tc.indexed)
		}
	}
}

// countingExpr is a conjunct that is true of every row and counts the rows
// it was asked about: ANDed in front of a WHERE clause it reports how many
// rows the clause was evaluated on.
type countingExpr struct{ n *int }

func (c countingExpr) eval(*evalCtx) (Value, error) {
	*c.n++
	return Int64(1), nil
}

// TestIndexMissEvaluatesNoRows: the task database's three statements whose
// common case is an index miss — the dedup lookup of a new key, the result
// poll with nothing ready, the reprioritisation of a task already popped —
// evaluate their WHERE clause on zero rows of a populated table. The SQL
// texts are internal/core's.
func TestIndexMissEvaluatesNoRows(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE eq_tasks (task_id INTEGER PRIMARY KEY AUTOINCREMENT, status TEXT, dedup_key TEXT)")
	mustExec(t, e, "CREATE INDEX eq_tasks_dedup ON eq_tasks (dedup_key)")
	mustExec(t, e, "CREATE TABLE eq_out_q (task_id INTEGER PRIMARY KEY, work_type INTEGER, priority INTEGER)")
	mustExec(t, e, "CREATE ORDERED INDEX eq_out_prio ON eq_out_q (priority, task_id)")
	mustExec(t, e, "CREATE TABLE eq_in_q (task_id INTEGER PRIMARY KEY, work_type INTEGER)")
	for i := 1; i <= 200; i++ {
		mustExec(t, e, "INSERT INTO eq_tasks (status, dedup_key) VALUES ('queued', ?)", Text(fmt.Sprint("k", i)))
		mustExec(t, e, "INSERT INTO eq_out_q (task_id, work_type, priority) VALUES (?, 1, ?)", Int64(int64(i)), Int64(int64(i%7)))
		mustExec(t, e, "INSERT INTO eq_in_q (task_id, work_type) VALUES (?, 1)", Int64(int64(i)))
	}
	for _, tc := range []struct {
		sql     string
		args    []Value
		spreadN int
		rows    int // rows the clause must be evaluated on
	}{
		{"SELECT task_id FROM eq_tasks WHERE dedup_key = ?", []Value{Text("never-submitted")}, 0, 0},
		{"SELECT task_id FROM eq_in_q WHERE task_id IN (?...) ORDER BY task_id ASC LIMIT ?", ints(901, 902, 903, 10), 3, 0},
		{"UPDATE eq_out_q SET priority = ? WHERE task_id = ?", ints(5, 901), 0, 0},
		{"DELETE FROM eq_out_q WHERE task_id = ?", []Value{Int64(901)}, 0, 0},
		// And a hit evaluates exactly the rows the index named.
		{"SELECT task_id FROM eq_tasks WHERE dedup_key = ?", []Value{Text("k17")}, 0, 1},
		{"SELECT task_id FROM eq_in_q WHERE task_id IN (?...) ORDER BY task_id ASC LIMIT ?", ints(3, 901, 5, 10), 3, 2},
	} {
		b := *boundOf(t, e, tc.sql)
		evaluated := 0
		b.where = &binExpr{Op: "AND", L: countingExpr{&evaluated}, R: b.where}
		ev := &evalCtx{args: tc.args, spreadN: tc.spreadN}
		ids, err := b.matchIDs(nil, ev)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if evaluated != tc.rows || len(ids) != tc.rows {
			t.Errorf("%s %v: WHERE evaluated on %d rows and matched %d, want %d of %d in the table",
				tc.sql, tc.args, evaluated, len(ids), tc.rows, b.t.live)
		}
	}
}

// TestIndexedProbeCoercion: an equality or IN probe whose type differs from
// the column's declared type returns the rows the unindexed engine returns.
// Before an index miss stopped falling back to a scan, such probes only
// worked through that scan.
func TestIndexedProbeCoercion(t *testing.T) {
	indexed, ref := NewEngine(), NewEngine()
	execBoth(t, indexed, ref, "CREATE TABLE t (k INTEGER, n INTEGER, s TEXT, r REAL)")
	for _, ddl := range []string{
		"CREATE INDEX t_k ON t (k)", "CREATE INDEX t_n ON t (n)",
		"CREATE INDEX t_s ON t (s)", "CREATE ORDERED INDEX t_r ON t (r)",
	} {
		mustExec(t, indexed, ddl)
	}
	for i := 0; i < 40; i++ {
		execBoth(t, indexed, ref, "INSERT INTO t (k, n, s, r) VALUES (?, ?, ?, ?)", Int64(int64(i)), Int64(int64(i%10)), Text(fmt.Sprint(i%10)), Int64(int64(float64(i%10)/2)))
	}
	execBoth(t, indexed, ref, "INSERT INTO t (k, n, s, r) VALUES (100, NULL, NULL, NULL)")
	execBoth(t, indexed, ref, "INSERT INTO t (k, n, s, r) VALUES (101, 0, '05', 2.5)")

	for _, tc := range []struct {
		sql  string
		args []Value
	}{
		{"SELECT k FROM t WHERE k = '5'", nil},
		{"SELECT k FROM t WHERE k = ?", []Value{Text("5")}},
		{"SELECT k FROM t WHERE '5' = k", nil},
		{"SELECT k FROM t WHERE k = '05'", nil},  // text compare: matches nothing
		{"SELECT k FROM t WHERE k = 'abc'", nil}, // coerces to 0, matches nothing
		{"SELECT k FROM t WHERE n = 5.0", nil},
		{"SELECT k FROM t WHERE n = ?", []Value{Float64(5.0)}},
		{"SELECT k FROM t WHERE n = 5.5", nil},
		{"SELECT k FROM t WHERE n = ?", []Value{Int64(1)}},
		{"SELECT k FROM t WHERE s = 5", nil},
		{"SELECT k FROM t WHERE s = ?", []Value{Int64(5)}},
		{"SELECT k FROM t WHERE s = 5.0", nil},
		{"SELECT k FROM t WHERE s = '05'", nil},
		{"SELECT k FROM t WHERE r = 2", nil},
		{"SELECT k FROM t WHERE r = '2.5'", nil},
		{"SELECT k FROM t WHERE r = ?", []Value{Text("2")}},
		{"SELECT k FROM t WHERE n = NULL", nil},
		{"SELECT k FROM t WHERE s = ?", []Value{Null()}},
		{"SELECT k FROM t WHERE k IN ('5', 6, 7.0, 'x', NULL)", nil},
		{"SELECT k FROM t WHERE s IN (?...)", []Value{Int64(5), Text("6"), Float64(7.0), Null()}},
		{"SELECT k FROM t WHERE n IN (?...) AND s = 5", []Value{Text("5"), Float64(6.0)}},
		{"UPDATE t SET s = 'hit' WHERE k = '7'", nil},
		{"DELETE FROM t WHERE n = '3'", nil},
		{"SELECT k, s FROM t WHERE k IN (3, 7, 13)", nil},
		{"SELECT COUNT(*) FROM t WHERE k = '5'", nil},
		{"SELECT COUNT(*) FROM t WHERE n = 5.0", nil},
		{"SELECT COUNT(*) FROM t WHERE s = 5", nil},
		{"SELECT COUNT(*) FROM t WHERE k = '05'", nil},
		{"SELECT k FROM t WHERE n = '5' ORDER BY r DESC, k ASC LIMIT 2", nil},
	} {
		ri, err := execSQL(indexed, tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("indexed %q: %v", tc.sql, err)
		}
		rr, err := execSQL(ref, tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("reference %q: %v", tc.sql, err)
		}
		if fmt.Sprint(ri.Rows) != fmt.Sprint(rr.Rows) || ri.RowsAffected != rr.RowsAffected {
			t.Errorf("%q %v:\n indexed: %v (%d affected)\n    scan: %v (%d affected)",
				tc.sql, tc.args, ri.Rows, ri.RowsAffected, rr.Rows, rr.RowsAffected)
		}
	}
}

// TestEqProbeAfterSpread: an equality parameter written after an IN (?...)
// list binds past the ids the list absorbed, in the index probe as it does
// in evaluation.
func TestEqProbeAfterSpread(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (k INTEGER, wt INTEGER)")
	mustExec(t, e, "CREATE INDEX t_wt ON t (wt)")
	for i := 1; i <= 9; i++ {
		mustExec(t, e, "INSERT INTO t (k, wt) VALUES (?, ?)", Int64(int64(i)), Int64(int64(i%3)))
	}
	// k carries no index, so the planner reaches the wt conjunct.
	res := mustExec(t, e, "SELECT k FROM t WHERE k IN (?...) AND wt = ?", ints(2, 4, 5, 7, 1)...)
	if fmt.Sprint(res.Rows) != "[[4] [7]]" {
		t.Fatalf("rows = %v, want k 4 and 7 (wt = 1)", res.Rows)
	}
}

// TestCountByIndex: COUNT over a lone indexed equality is answered from the
// index and equals the scan's answer — including where the fast path must
// decline (extra conjuncts, other aggregates, no index) or count zero (NULL
// and non-canonical probes) — before and after rolled-back churn.
func TestCountByIndex(t *testing.T) {
	indexed, ref := NewEngine(), NewEngine()
	execBoth(t, indexed, ref, "CREATE TABLE t (id INTEGER PRIMARY KEY, status TEXT, exp TEXT, n INTEGER)")
	mustExec(t, indexed, "CREATE INDEX t_status ON t (status)")
	mustExec(t, indexed, "CREATE INDEX t_n ON t (n)")
	statuses := []string{"queued", "running", "complete"}
	for i := 1; i <= 300; i++ {
		execBoth(t, indexed, ref, "INSERT INTO t (id, status, exp, n) VALUES (?, ?, ?, ?)", Int64(int64(i)), Text(statuses[i%3]), Text(fmt.Sprint("e", i%2)), Int64(int64(i%5)))
	}
	execBoth(t, indexed, ref, "INSERT INTO t (id, status, exp, n) VALUES (1000, NULL, NULL, NULL)")

	queries := []struct {
		sql  string
		args []Value
		fast bool
	}{
		{"SELECT COUNT(*) FROM t WHERE status = ?", []Value{Text("queued")}, true},
		{"SELECT COUNT(*) FROM t WHERE ? = status", []Value{Text("running")}, true},
		{"SELECT COUNT(*) FROM t WHERE status = 'canceled'", nil, true},
		{"SELECT COUNT(*) FROM t WHERE status = ?", []Value{Null()}, true},
		{"SELECT COUNT(*) FROM t WHERE n = NULL", nil, true},
		{"SELECT COUNT(*) FROM t WHERE n = '3'", nil, true},
		{"SELECT COUNT(*) FROM t WHERE n = '03'", nil, true},
		{"SELECT COUNT(*) FROM t WHERE n = 3.0", nil, true},
		{"SELECT COUNT(*) FROM t WHERE id = 17", nil, true},
		{"SELECT COUNT(*) FROM t WHERE status = ? AND exp = ?", []Value{Text("queued"), Text("e1")}, false},
		{"SELECT COUNT(*) FROM t WHERE status = ? AND n = 2", []Value{Text("queued")}, false},
		{"SELECT COUNT(*) FROM t WHERE status IN (?...)", []Value{Text("queued"), Text("running")}, false},
		{"SELECT COUNT(*) FROM t WHERE exp = ?", []Value{Text("e1")}, false},
		{"SELECT COUNT(*) FROM t", nil, false},
		{"SELECT id FROM t WHERE status = ?", []Value{Text("queued")}, false},
	}
	check := func(when string) {
		t.Helper()
		for _, q := range queries {
			ri := mustExec(t, indexed, q.sql, q.args...)
			rr := mustExec(t, ref, q.sql, q.args...)
			if fmt.Sprint(ri.Rows) != fmt.Sprint(rr.Rows) {
				t.Errorf("%s, %q %v: indexed %v, scan %v",
					when, q.sql, q.args, ri.Rows, rr.Rows)
			}
			if fast := boundOf(t, indexed, q.sql).countIx; fast != q.fast {
				t.Errorf("%q: answered from the index = %v, want %v", q.sql, fast, q.fast)
			}
		}
	}
	check("loaded")

	for _, e := range []*Engine{indexed, ref} {
		_, err := e.TxLogged(func(tx *Tx) error {
			for _, sql := range []string{
				"UPDATE t SET status = 'queued' WHERE n = 1",
				"DELETE FROM t WHERE status = 'running'",
				"INSERT INTO t (id, status, exp, n) VALUES (2000, 'queued', 'e1', 3)",
			} {
				if _, err := txExecSQL(tx, sql); err != nil {
					return err
				}
			}
			return fmt.Errorf("abort")
		})
		if err == nil {
			t.Fatal("transaction unexpectedly committed")
		}
	}
	check("after rollback")

	execBoth(t, indexed, ref, "UPDATE t SET status = 'complete' WHERE n = 1")
	execBoth(t, indexed, ref, "DELETE FROM t WHERE status = 'running'")
	check("after committed churn")
}
