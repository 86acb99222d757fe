package minisql

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// indexIDs is one index's contents, read back independently of how its sets
// and leaves happen to be shaped: per hash key the sorted rowids, and the
// sorted side in order.
func indexIDs(ix *hashIndex) (map[hashKey][]int64, []ordEntry) {
	m := make(map[hashKey][]int64, len(ix.m))
	for k, set := range ix.m {
		ids := []int64{set.one}
		if set.more != nil {
			ids = ids[:0]
			for id := range set.more {
				ids = append(ids, id)
			}
			slices.Sort(ids)
		}
		m[k] = ids
	}
	return m, ix.sorted.forward()
}

// sameState fails unless got holds what want holds: the same checkpoint
// bytes (rows, keys, schema) and, per index, the same entries.
func sameState(t *testing.T, got, want *Engine) {
	t.Helper()
	var a, b bytes.Buffer
	if err := got.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rows differ from the reference engine (%d vs %d checkpoint bytes)", a.Len(), b.Len())
	}
	for name, tg := range got.tables {
		for spec, ix := range tg.indexes {
			gm, gs := indexIDs(ix)
			wm, ws := indexIDs(want.tables[name].indexes[spec])
			if len(gm) != len(wm) {
				t.Fatalf("index %s.%s: %d hash keys, reference %d", name, spec, len(gm), len(wm))
			}
			for k, ids := range wm {
				if !slices.Equal(gm[k], ids) {
					t.Fatalf("index %s.%s, key %v: rowids %v, reference %v", name, spec, k, gm[k], ids)
				}
			}
			if err := sameEntries(gs, ws); err != nil {
				t.Fatalf("index %s.%s, sorted side: %v", name, spec, err)
			}
		}
	}
}

// rollbackEngine is taskLikeEngine with a single-column ordered index too, so
// in-place writes re-key a hash side (exp), a composite sorted side (prio, id)
// and a single-column index with both sides (status).
func rollbackEngine(t *testing.T) *Engine {
	t.Helper()
	e, _ := taskLikeEngine(t, 2000)
	mustExec(t, e, "CREATE ORDERED INDEX tasks_status ON tasks (status)")
	return e
}

// inPlaceUpdates runs, in one transaction, UPDATEs that re-key every kind of
// index, write the same row several times, write a row a later statement
// deletes, and write a row the transaction inserted.
func inPlaceUpdates(tx *Tx) error {
	byID, err := tx.e.Prepare("UPDATE tasks SET prio = ? WHERE id = ?")
	if err != nil {
		return err
	}
	prios := make([]Value, 0, 200)
	for id := int64(10); id < 110; id++ {
		prios = append(prios, Int64(id%5), Int64(id)) // some keep their prio
	}
	if _, err := tx.RunRows(byID, prios); err != nil {
		return err
	}
	for _, s := range []struct {
		sql  string
		args []Value
	}{
		{"UPDATE tasks SET exp = ? WHERE id = ?", []Value{Text("moved"), Int64(5)}},
		{"UPDATE tasks SET exp = ?, prio = ? WHERE id = ?", []Value{Text("exp2"), Int64(99), Int64(6)}},
		{"UPDATE tasks SET prio = ? WHERE id = ?", ints(500, 5)},
		{"UPDATE tasks SET prio = ?, prio = ? WHERE id = ?", ints(501, 3, 5)},
		{"UPDATE tasks SET status = ?, result = ?, exp = ? WHERE id = ?", []Value{Int64(3), Text("r"), Text("exp2"), Int64(5)}},
		{"UPDATE tasks SET status = status WHERE wt = ?", []Value{Int64(2)}},
		{"UPDATE tasks SET prio = ?, status = ? WHERE exp = ? AND wt = ?", []Value{Int64(7), Int64(1), Text("exp"), Int64(1)}},
		{"DELETE FROM tasks WHERE id = ?", []Value{Int64(6)}},
		{"INSERT INTO tasks (exp, wt, status, prio, payload) VALUES (?, ?, ?, ?, ?)", []Value{Text("new"), Int64(1), Int64(0), Int64(1), Text("p")}},
		{"UPDATE tasks SET exp = ?, prio = ?, payload = ? WHERE exp = ?", []Value{Text("newer"), Int64(2), Text("q"), Text("new")}},
	} {
		if _, err := txExecSQL(tx, s.sql, s.args...); err != nil {
			return fmt.Errorf("%s: %w", s.sql, err)
		}
	}
	return nil
}

// TestInPlaceUpdateRollback: a transaction of in-place UPDATEs that fails —
// by its own error, by a commit hook refusing it, or with a checkpoint
// capture in flight so every write detaches — leaves every value and every
// index entry as an engine that never ran it holds them.
func TestInPlaceUpdateRollback(t *testing.T) {
	ref := rollbackEngine(t)
	for _, mode := range []string{"callback error", "hook veto", "capture in flight"} {
		t.Run(mode, func(t *testing.T) {
			e := rollbackEngine(t)
			var pw *parkedWriter
			snapDone := make(chan error, 1)
			switch mode {
			case "hook veto":
				e.SetCommitHook(func([]Stmt) (uint64, error) { return 0, errAbort{} })
			case "capture in flight":
				pw = &parkedWriter{entered: make(chan struct{}), release: make(chan struct{})}
				go func() { snapDone <- e.Snapshot(pw) }()
				<-pw.entered
			}
			_, err := e.TxLogged(func(tx *Tx) error {
				if err := inPlaceUpdates(tx); err != nil {
					return err
				}
				if mode == "hook veto" {
					return nil
				}
				return errAbort{}
			})
			if err != (errAbort{}) {
				t.Fatalf("TxLogged = %v, want the transaction refused with errAbort", err)
			}
			sameState(t, e, ref)
			if pw == nil {
				return
			}
			close(pw.release)
			if err := <-snapDone; err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := ref.Snapshot(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pw.Bytes(), want.Bytes()) {
				t.Fatal("the capture in flight saw the rolled-back transaction's writes")
			}
		})
	}
}

// TestUpdateInPlaceAllocs: 500 primary-key UPDATEs of non-key columns run as
// one RunRows allocate no row: the rows-affected slice and nothing per row.
// With a checkpoint capture in flight each row is copied once before it is
// written — the detach, and the only copy an UPDATE makes.
func TestUpdateInPlaceAllocs(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s TEXT)")
	const n = 500
	args := make([]Value, 0, 3*n)
	for id := int64(1); id <= n; id++ {
		mustExec(t, e, "INSERT INTO t (id, v, s) VALUES (?, 0, 'a')", Int64(int64(id)))
		args = append(args, Int64(id), Text("b"), Int64(id))
	}
	h, err := e.Prepare("UPDATE t SET v = ?, s = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := e.TxLogged(func(tx *Tx) error {
			_, err := tx.RunRows(h, args)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, run); got > 2 {
		t.Fatalf("RunRows of %d primary-key UPDATEs: %.0f allocs, want <= 2", n, got)
	}
	e.captures++ // as SnapshotWith counts itself between its capture and its end
	if got := testing.AllocsPerRun(20, run); got < n {
		t.Fatalf("RunRows of %d UPDATEs beside a capture: %.0f allocs, want a copy per row", n, got)
	}
	e.captures--
	if got := mustExec(t, e, "SELECT v, s FROM t WHERE id = ?", Int64(7)).Rows; len(got) != 1 || got[0][0].AsInt() != 7 || got[0][1].AsText() != "b" {
		t.Fatalf("row 7 after the updates = %v, want [7 b]", got)
	}
}
