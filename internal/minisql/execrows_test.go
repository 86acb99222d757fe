package minisql

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newQueueEngine returns a hooked engine holding rows (id, p) = (i, 10i) for
// i in 1..n.
func newQueueEngine(t *testing.T, n int) (*Engine, *Log) {
	t.Helper()
	e, w := newHookedEngine(t,
		"CREATE TABLE q (id INTEGER PRIMARY KEY, p INTEGER)",
		"CREATE ORDERED INDEX q_p ON q (p, id)")
	for i := 1; i <= n; i++ {
		mustExec(t, e, "INSERT INTO q (id, p) VALUES (?, ?)", Int64(int64(i)), Int64(int64(10*i)))
	}
	return e, w
}

// TestSurplusArgumentsRejected: a statement without a spread takes exactly
// its parameter count at both Exec entry points, and ExecRows takes whole
// argument rows of an UPDATE; each refusal leaves no trace in the tables or
// the log. (Surplus arguments used to be ignored; in the log they would now
// read as further argument rows.)
func TestSurplusArgumentsRejected(t *testing.T) {
	e, w := newQueueEngine(t, 3)
	before, logged := snapshotBytes(t, e), w.LastIndex()
	const upd = "UPDATE q SET p = ? WHERE id = ?"

	if _, err := execSQL(e, upd, ints(5, 1, 6, 2)...); err == nil {
		t.Error("Exec accepted two argument rows")
	}
	if _, err := execSQL(e, "SELECT p FROM q WHERE id = ?", Int64(1), Int64(2)); err == nil {
		t.Error("Exec accepted a surplus argument on a SELECT")
	}
	for name, fn := range map[string]func(tx *Tx) error{
		"Tx.Exec with a surplus argument": func(tx *Tx) error {
			_, err := txExecSQL(tx, upd, ints(5, 1, 9)...)
			return err
		},
		"ExecRows with a ragged last row": func(tx *Tx) error {
			_, err := txExecRows(tx, upd, ints(5, 1, 9))
			return err
		},
		"ExecRows with no rows": func(tx *Tx) error {
			_, err := txExecRows(tx, upd, nil)
			return err
		},
		"ExecRows of a spread statement": func(tx *Tx) error {
			_, err := txExecRows(tx, "UPDATE q SET p = ? WHERE id IN (?...)", ints(5, 1, 2))
			return err
		},
		"ExecRows of a statement without parameters": func(tx *Tx) error {
			_, err := txExecRows(tx, "UPDATE q SET p = 0", []Value{Int64(1)})
			return err
		},
		"ExecRows of an INSERT": func(tx *Tx) error {
			_, err := txExecRows(tx, "INSERT INTO q (id, p) VALUES (?, ?)", ints(7, 70, 8, 80))
			return err
		},
	} {
		// The refused call is all the transaction does, so swallowing its
		// error commits whatever it left behind.
		if _, err := e.TxLogged(func(tx *Tx) error {
			if fn(tx) == nil {
				t.Errorf("%s: accepted", name)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, e), before) || w.LastIndex() != logged {
		t.Fatalf("refused calls changed the tables or logged %d entries", w.LastIndex()-logged)
	}

	// A spread still absorbs any number of arguments.
	if res := mustExec(t, e, "UPDATE q SET p = ? WHERE id IN (?...)", ints(3, 1, 2, 3, 4)...); res.RowsAffected != 3 {
		t.Fatalf("spread UPDATE affected %d rows, want 3", res.RowsAffected)
	}
}

// TestExecRowsIsTheExecLoop: ExecRows reports each argument row's hits, each
// row sees the rows before it, the set is one logged Stmt holding the rows
// back to back — a single row is the Stmt Exec would have logged — and
// replaying it reproduces the engine.
func TestExecRowsIsTheExecLoop(t *testing.T) {
	e, w := newQueueEngine(t, 5)
	ref, _ := newQueueEngine(t, 5)
	replica, _ := newQueueEngine(t, 5)
	base := w.LastIndex()

	// p = p + ? is not in the grammar; WHERE on the column a previous row
	// wrote is what shows rows apply in order: id 2 moves to 10, then every
	// row at 10 (ids 1 and 2) moves to 99, no row is at 90, id 3 moves to 55.
	const upd = "UPDATE q SET p = ? WHERE p = ?"
	rows := [][]Value{{Int64(10), Int64(20)}, {Int64(99), Int64(10)}, {Int64(7), Int64(90)}, {Int64(55), Int64(30)}}
	var args []Value
	for _, r := range rows {
		args = append(args, r...)
		mustExec(t, ref, upd, r...)
	}
	var hits []int
	if _, err := e.TxLogged(func(tx *Tx) (err error) {
		hits, err = txExecRows(tx, upd, args)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hits) != "[1 2 0 1]" {
		t.Fatalf("hits = %v, want [1 2 0 1]", hits)
	}
	if !bytes.Equal(snapshotBytes(t, e), snapshotBytes(t, ref)) {
		t.Fatal("ExecRows left a different engine than the Exec loop")
	}
	entries, _ := entriesSince(t, w, base)
	if len(entries) != 1 || len(entries[0].Stmts) != 1 || len(entries[0].Stmts[0].Args) != len(args) {
		t.Fatalf("logged %+v, want one entry of one Stmt carrying %d arguments", entries, len(args))
	}
	if err := replica.ApplyEntry(entries[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, replica), snapshotBytes(t, e)) {
		t.Fatal("replaying the set-based Stmt diverges from the engine that logged it")
	}

	// One argument row logs what Exec logs.
	if _, err := e.TxLogged(func(tx *Tx) error {
		_, err := txExecRows(tx, upd, ints(1, 99))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, upd, Int64(1), Int64(99))
	entries, _ = entriesSince(t, w, base+1)
	if len(entries) != 2 || fmt.Sprint(entries[0].Stmts) != fmt.Sprint(entries[1].Stmts) {
		t.Fatalf("a one-row ExecRows logged %+v, Exec logged %+v", entries[0].Stmts, entries[1:])
	}

	// A ragged or non-UPDATE multi-row Stmt in a shipped entry is refused whole.
	for _, bad := range []Stmt{
		{SQL: upd, Args: ints(1, 99, 2)},
		{SQL: "DELETE FROM q WHERE id = ?", Args: ints(1, 2)},
	} {
		before := snapshotBytes(t, replica)
		err := replica.ApplyEntry(LogEntry{Index: 99, Stmts: []Stmt{{SQL: upd, Args: ints(0, 40)}, bad}})
		if err == nil || !bytes.Equal(snapshotBytes(t, replica), before) {
			t.Fatalf("entry holding %q with %d arguments: err %v, state changed %v",
				bad.SQL, len(bad.Args), err, !bytes.Equal(snapshotBytes(t, replica), before))
		}
	}
}

// TestExecRowsAtomic: a failure in argument row k undoes rows 0..k-1 — in the
// tables, in both sides of the indexes — and logs nothing, whether the
// transaction then aborts or swallows the error and commits its other work.
func TestExecRowsAtomic(t *testing.T) {
	// An IN list stops at its first equal member: ids 1-3 (p = 10, 20, 30)
	// match on a literal, id 4 (p = 40) reads on to the unknown column and
	// fails the statement at its fourth argument row, after three have applied.
	const upd = "UPDATE q SET p = ? WHERE id = ? AND p IN (10, 20, 30, nosuch)"
	for _, swallow := range []bool{false, true} {
		e, w := newQueueEngine(t, 5)
		before, logged := snapshotBytes(t, e), w.LastIndex()

		// The first three rows alone apply, so the failure below has work to undo.
		var hits []int
		if _, err := e.TxLogged(func(tx *Tx) (err error) {
			hits, err = txExecRows(tx, upd, ints(500, 1, 400, 2, 300, 3))
			if err != nil {
				return err
			}
			return errAbort{}
		}); err != (errAbort{}) || fmt.Sprint(hits) != "[1 1 1]" {
			t.Fatalf("first three rows: err %v, hits %v, want the abort and [1 1 1]", err, hits)
		}

		_, err := e.TxLogged(func(tx *Tx) error {
			if _, err := txExecSQL(tx, "INSERT INTO q (id, p) VALUES (6, 60)"); err != nil {
				return err
			}
			_, err := txExecRows(tx, upd, ints(500, 1, 400, 2, 300, 3, 200, 4, 100, 5))
			if err == nil || !strings.Contains(err.Error(), `no column "nosuch"`) {
				t.Fatalf("ExecRows: err %v, want the unknown column", err)
			}
			if swallow {
				return nil
			}
			return err
		})
		if swallow {
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, "DELETE FROM q WHERE id = 6")
			entries, _ := entriesSince(t, w, logged)
			if len(entries) != 2 || len(entries[0].Stmts) != 1 {
				t.Fatalf("logged %+v, want the INSERT alone, then the DELETE", entries)
			}
		} else if err == nil || w.LastIndex() != logged {
			t.Fatalf("aborted transaction: err %v, %d entries logged", err, w.LastIndex()-logged)
		}
		if !bytes.Equal(snapshotBytes(t, e), before) {
			t.Fatalf("swallow=%v: rows before the failing one survived", swallow)
		}
		res := mustExec(t, e, "SELECT id FROM q ORDER BY p DESC, id ASC LIMIT 2")
		if fmt.Sprint(res.Rows) != "[[5] [4]]" {
			t.Fatalf("swallow=%v: ordered index after the undo reads %v, want [[5] [4]]", swallow, res.Rows)
		}
		if res := mustExec(t, e, "SELECT p FROM q WHERE id = 1"); fmt.Sprint(res.Rows) != "[[10]]" {
			t.Fatalf("swallow=%v: id 1 reads %v after the undo, want 10", swallow, res.Rows)
		}
	}
}
