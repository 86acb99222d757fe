package minisql

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestSpreadINWidths: one IN (?...) statement text serves every argument
// width, including parameters on both sides of the spread.
func TestSpreadINWidths(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY, wt INTEGER)")
	for i := 1; i <= 10; i++ {
		mustExec(t, e, "INSERT INTO q (id, wt) VALUES (?, ?)", Int64(int64(i)), Int64(int64(i%2)))
	}

	const sel = "SELECT id FROM q WHERE id IN (?...) ORDER BY id ASC LIMIT ?"
	for _, tc := range []struct {
		args []Value
		want []int64
	}{
		{ints(3, 100), []int64{3}},
		{ints(5, 2, 9, 100), []int64{2, 5, 9}},
		{ints(5, 2, 9, 2), []int64{2, 5}}, // LIMIT binds after the spread
		{[]Value{Int64(100)}, nil},        // zero-width spread matches nothing
	} {
		res, err := execSQL(e, sel, tc.args...)
		if err != nil {
			t.Fatalf("Exec(%v): %v", tc.args, err)
		}
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].AsInt())
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("spread select args %v = %v, want %v", tc.args, got, tc.want)
		}
	}

	// Parameters before the spread keep their positions.
	res, err := execSQL(e, "UPDATE q SET wt = ? WHERE id IN (?...)", ints(7, 1, 2, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("spread update affected %d rows, want 3", res.RowsAffected)
	}
	res = mustExec(t, e, "SELECT COUNT(*) FROM q WHERE wt = ?", Int64(7))
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("wt=7 count = %d, want 3", res.Rows[0][0].AsInt())
	}
}

// TestTwoParamINLists: explicit all-parameter IN lists are fixed-width lists
// in their own right — two in one statement, or one beside a spread, bind
// their arguments by position.
func TestTwoParamINLists(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY, wt INTEGER)")
	for i := 1; i <= 6; i++ {
		mustExec(t, e, "INSERT INTO q (id, wt) VALUES (?, ?)", Int64(int64(i)), Int64(int64(i)))
	}
	res, err := execSQL(e, "SELECT id FROM q WHERE id IN (?, ?, ?) AND wt IN (?, ?)", ints(1, 2, 5, 2, 5)...)
	if err != nil {
		t.Fatalf("two-IN-list statement: %v", err)
	}
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].AsInt())
	}
	if fmt.Sprint(got) != "[2 5]" {
		t.Fatalf("two-IN-list result = %v, want [2 5]", got)
	}
	// An explicit fixed list ahead of a spread is equally valid: the fixed
	// list keeps its width, the spread absorbs the surplus.
	res, err = execSQL(e, "SELECT id FROM q WHERE wt IN (?, ?) AND id IN (?...)", ints(2, 5, 1, 2, 5)...)
	if err != nil {
		t.Fatalf("fixed-list-before-spread statement: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("fixed-list-before-spread result = %v, want 2 rows", res.Rows)
	}
}

// TestSpreadINIndexedLookup: the spread list still drives the hash-index
// candidate plan rather than a full scan — observed through a working WHERE
// over a primary-key column (behavioral check plus a direct probe of the
// bound plan's candidates).
func TestSpreadINIndexedLookup(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 1; i <= 100; i++ {
		mustExec(t, e, "INSERT INTO q (id, v) VALUES (?, ?)", Int64(int64(i)), Text(fmt.Sprintf("v%d", i)))
	}
	b := boundOf(t, e, "DELETE FROM q WHERE id IN (?...)")
	ids, indexed, err := b.probe.candidates(nil,
		&evalCtx{args: []Value{Int64(7), Int64(3), Int64(99)}, spreadN: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The candidates are internal rowids (0-based insertion ids here): task
	// ids 3, 7, 99 occupy rowids 2, 6, 98. The point is the set is 3 indexed
	// hits, not a 100-row scan.
	if !indexed || fmt.Sprint(ids) != "[2 6 98]" {
		t.Fatalf("candidates over spread IN = %v, want the indexed candidate set [2 6 98]", ids)
	}
}

// TestSpreadINReplay: a WAL entry whose statement carries an explicit IN
// list is logged as written and replays to byte-identical state on a
// follower engine.
func TestSpreadINReplay(t *testing.T) {
	leader, follower := NewEngine(), NewEngine()
	wal := leaderLog()
	leader.SetCommitHook(wal.Append)
	setup := []string{
		"CREATE TABLE q (id INTEGER PRIMARY KEY, wt INTEGER)",
		"INSERT INTO q (id, wt) VALUES (1, 0), (2, 0), (3, 0), (4, 0)",
	}
	for _, s := range setup {
		mustExec(t, leader, s)
	}
	if _, err := execSQL(leader, "DELETE FROM q WHERE id IN (?, ?)", Int64(2), Int64(4)); err != nil {
		t.Fatal(err)
	}
	entries, _ := entriesSince(t, wal, 0)
	for _, ent := range entries {
		if err := follower.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}
	var a, b bytes.Buffer
	if err := leader.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := follower.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("leader and replayed follower snapshots diverge")
	}
}

// TestCompositeOrderedTopNMatchesSort is the two-column twin of
// TestOrderedTopNMatchesSort, driven with a UNIFORM first key for many rows —
// the degenerate single-run shape the composite index exists for — plus mixed
// priorities, random churn, and the exact pop query shape.
func TestCompositeOrderedTopNMatchesSort(t *testing.T) {
	indexed, ref := NewEngine(), NewEngine()
	const schema = "CREATE TABLE q (task_id INTEGER PRIMARY KEY, wt INTEGER, prio INTEGER)"
	execBoth(t, indexed, ref, schema)
	if _, err := execSQL(indexed, "CREATE ORDERED INDEX q_prio ON q (prio, task_id)"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	nextID := int64(1)
	live := []int64{}
	queries := []string{
		"SELECT task_id, prio FROM q WHERE wt = ? ORDER BY prio DESC, task_id ASC LIMIT ?",
		"SELECT task_id FROM q WHERE wt = ? ORDER BY prio ASC, task_id ASC LIMIT ?",
		"SELECT task_id FROM q ORDER BY prio DESC, task_id ASC LIMIT ?",
		// Not servable by the composite index (no second key / mismatched
		// second key): must fall back and still agree.
		"SELECT task_id FROM q ORDER BY prio DESC LIMIT ?",
		"SELECT task_id FROM q ORDER BY prio DESC, wt ASC LIMIT ?",
	}
	check := func() {
		t.Helper()
		for _, qs := range queries {
			var args []Value
			if countParams(qs) == 2 {
				args = []Value{Int64(int64(rng.Intn(3))), Int64(int64(rng.Intn(12) + 1))}
			} else {
				args = []Value{Int64(int64(rng.Intn(12) + 1))}
			}
			ri, err := execSQL(indexed, qs, args...)
			if err != nil {
				t.Fatalf("indexed %q: %v", qs, err)
			}
			rr, err := execSQL(ref, qs, args...)
			if err != nil {
				t.Fatalf("reference %q: %v", qs, err)
			}
			if fmt.Sprint(ri.Rows) != fmt.Sprint(rr.Rows) {
				t.Fatalf("divergence on %q args %v:\n index: %v\n  sort: %v",
					qs, args, ri.Rows, rr.Rows)
			}
		}
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0:
			// Mostly priority 0 — uniform-priority runs — with occasional
			// outliers.
			prio := 0
			if rng.Intn(5) == 0 {
				prio = rng.Intn(8)
			}
			execBoth(t, indexed, ref, "INSERT INTO q (task_id, wt, prio) VALUES (?, ?, ?)", Int64(int64(nextID)), Int64(int64(rng.Intn(3))), Int64(int64(prio)))
			live = append(live, nextID)
			nextID++
		case op < 8:
			i := rng.Intn(len(live))
			execBoth(t, indexed, ref, "DELETE FROM q WHERE task_id = ?", Int64(live[i]))
			live = append(live[:i], live[i+1:]...)
		default:
			execBoth(t, indexed, ref, "UPDATE q SET prio = ? WHERE task_id = ?", Int64(int64(rng.Intn(8))), Int64(live[rng.Intn(len(live))]))
		}
		if step%20 == 0 {
			check()
		}
	}
	check()
}

// TestCompositeOrderedSnapshotRoundTrip: the two-column spec must survive
// snapshot/restore with its sorted side intact.
func TestCompositeOrderedSnapshotRoundTrip(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (task_id INTEGER PRIMARY KEY, prio INTEGER)")
	mustExec(t, e, "CREATE ORDERED INDEX IF NOT EXISTS q_prio ON q (prio, task_id)")
	for i := 1; i <= 30; i++ {
		mustExec(t, e, "INSERT INTO q (task_id, prio) VALUES (?, 0)", Int64(int64(i)))
	}
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r := NewEngine()
	if err := r.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	ix := r.tables["q"].indexes["prio,task_id"]
	if ix == nil || !ix.ordered || len(ix.cols) != 2 {
		t.Fatalf("restored composite index = %+v, want ordered 2-column", ix)
	}
	res, err := execSQL(r, "SELECT task_id FROM q ORDER BY prio DESC, task_id ASC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []int64{1, 2, 3} {
		if res.Rows[i][0].AsInt() != w {
			t.Fatalf("restored composite top-n = %v, want [1 2 3]", res.Rows)
		}
	}
}
