package minisql

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// execBoth runs the same statement against the indexed and reference engines
// and fails on any error.
func execBoth(t *testing.T, a, b *Engine, sql string, args ...any) {
	t.Helper()
	if _, err := a.Exec(sql, args...); err != nil {
		t.Fatalf("indexed Exec(%q): %v", sql, err)
	}
	if _, err := b.Exec(sql, args...); err != nil {
		t.Fatalf("reference Exec(%q): %v", sql, err)
	}
}

// TestOrderedTopNMatchesSort drives random churn (inserts, deletes, updates)
// through two engines — one with an ordered index on the sort column, one
// without — and checks that every ORDER BY ... LIMIT query the queue pops
// use returns identical rows from the index fast path and the scan-and-sort
// fallback: at a depth of a few rows and at one that spreads the index over
// dozens of leaves, on a single-column index and on the composite
// (priority, task_id) index the output queue carries, and again on an engine
// restored from a snapshot taken at that depth.
func TestOrderedTopNMatchesSort(t *testing.T) {
	for _, tc := range []struct {
		name, index  string
		steps, every int
		maxLimit     int
	}{
		{"single/shallow", "CREATE ORDERED INDEX q_prio ON q (prio)", 300, 20, 12},
		{"single/deep", "CREATE ORDERED INDEX q_prio ON q (prio)", 8000, 400, 700},
		{"composite/shallow", "CREATE ORDERED INDEX q_prio ON q (prio, task_id)", 300, 20, 12},
		{"composite/deep", "CREATE ORDERED INDEX q_prio ON q (prio, task_id)", 8000, 400, 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orderedChurn(t, tc.index, tc.steps, tc.every, tc.maxLimit)
		})
	}
}

func orderedChurn(t *testing.T, index string, steps, every, maxLimit int) {
	indexed, ref := NewEngine(), NewEngine()
	const schema = "CREATE TABLE q (task_id INTEGER PRIMARY KEY, wt INTEGER, prio INTEGER)"
	execBoth(t, indexed, ref, schema)
	if _, err := indexed.Exec(index); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	nextID := int64(1)
	live := []int64{}
	queries := []string{
		"SELECT task_id, prio FROM q WHERE wt = ? ORDER BY prio DESC, task_id ASC LIMIT ?",
		"SELECT task_id FROM q WHERE wt = ? ORDER BY prio ASC, task_id ASC LIMIT ?",
		"SELECT task_id FROM q ORDER BY prio DESC, task_id ASC LIMIT ?",
		"SELECT task_id FROM q ORDER BY prio DESC LIMIT ?",
	}
	check := func(indexed *Engine) {
		t.Helper()
		for _, qs := range queries {
			var args []any
			if countParams(qs) == 2 {
				args = []any{rng.Intn(3), rng.Intn(maxLimit) + 1}
			} else {
				args = []any{rng.Intn(maxLimit) + 1}
			}
			ri, err := indexed.Exec(qs, args...)
			if err != nil {
				t.Fatalf("indexed %q: %v", qs, err)
			}
			rr, err := ref.Exec(qs, args...)
			if err != nil {
				t.Fatalf("reference %q: %v", qs, err)
			}
			if fmt.Sprint(ri.Rows) != fmt.Sprint(rr.Rows) {
				t.Fatalf("divergence on %q args %v:\n index: %v\n  sort: %v",
					qs, args, ri.Rows, rr.Rows)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0: // insert (duplicate priorities on purpose)
			execBoth(t, indexed, ref, "INSERT INTO q (task_id, wt, prio) VALUES (?, ?, ?)",
				nextID, rng.Intn(3), rng.Intn(8))
			live = append(live, nextID)
			nextID++
		case op < 8: // delete
			i := rng.Intn(len(live))
			execBoth(t, indexed, ref, "DELETE FROM q WHERE task_id = ?", live[i])
			live = append(live[:i], live[i+1:]...)
		default: // reprioritize
			execBoth(t, indexed, ref, "UPDATE q SET prio = ? WHERE task_id = ?",
				rng.Intn(8), live[rng.Intn(len(live))])
		}
		if step%every == 0 {
			check(indexed)
		}
	}
	check(indexed)

	var snap bytes.Buffer
	if err := indexed.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewEngine()
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	for spec, ix := range restored.tables["q"].indexes {
		if want := indexed.tables["q"].indexes[spec]; ix.ordered != want.ordered || ix.sorted.count() != want.sorted.count() {
			t.Fatalf("restored index %s: ordered %v with %d entries, want %v with %d",
				spec, ix.ordered, ix.sorted.count(), want.ordered, want.sorted.count())
		}
	}
	check(restored)
}

func countParams(sql string) int {
	n := 0
	for _, c := range sql {
		if c == '?' {
			n++
		}
	}
	return n
}

// TestOrderedIndexRollback: a rolled-back transaction must leave the sorted
// side exactly as it was, or later top-n reads return phantom rows.
func TestOrderedIndexRollback(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (task_id INTEGER PRIMARY KEY, prio INTEGER)")
	mustExec(t, e, "CREATE ORDERED INDEX q_prio ON q (prio)")
	mustExec(t, e, "INSERT INTO q (task_id, prio) VALUES (1, 5), (2, 9)")

	_, err := e.TxLogged(func(tx *Tx) error {
		if _, err := tx.Exec("INSERT INTO q (task_id, prio) VALUES (3, 100)"); err != nil {
			return err
		}
		if _, err := tx.Exec("UPDATE q SET prio = 0 WHERE task_id = 2"); err != nil {
			return err
		}
		if _, err := tx.Exec("DELETE FROM q WHERE task_id = 1"); err != nil {
			return err
		}
		return fmt.Errorf("abort")
	})
	if err == nil {
		t.Fatal("transaction unexpectedly committed")
	}
	res := mustExec(t, e, "SELECT task_id FROM q ORDER BY prio DESC LIMIT 10")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 2 || res.Rows[1][0].AsInt() != 1 {
		t.Fatalf("post-rollback top-n = %v, want [[2] [1]]", res.Rows)
	}
}

// TestOrderedIndexSnapshotRoundTrip: orderedness must survive a snapshot, so
// a follower bootstrapping from a leader snapshot keeps the top-n fast path.
func TestOrderedIndexSnapshotRoundTrip(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (task_id INTEGER PRIMARY KEY, prio INTEGER)")
	mustExec(t, e, "CREATE ORDERED INDEX q_prio ON q (prio)")
	for i := 1; i <= 20; i++ {
		mustExec(t, e, "INSERT INTO q (task_id, prio) VALUES (?, ?)", i, i%5)
	}
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r := NewEngine()
	if err := r.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	ix := r.tables["q"].indexes["prio"]
	if ix == nil || !ix.ordered {
		t.Fatal("restored index lost its sorted side")
	}
	if n := ix.sorted.count(); n != 20 {
		t.Fatalf("restored sorted side has %d entries, want 20", n)
	}
	res, err := r.Exec("SELECT task_id FROM q WHERE prio = ? ORDER BY prio DESC, task_id ASC LIMIT 3", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 9, 14}
	for i, w := range want {
		if res.Rows[i][0].AsInt() != w {
			t.Fatalf("restored top-n = %v, want task_ids %v", res.Rows, want)
		}
	}
}
