package minisql

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// applyText replays one statement by its text, as a follower does.
func applyText(t *testing.T, e *Engine, sql string, args ...Value) {
	t.Helper()
	if err := e.ApplyEntry(LogEntry{Stmts: []Stmt{{SQL: sql, Args: args}}}); err != nil {
		t.Fatalf("ApplyEntry(%q): %v", sql, err)
	}
}

// TestPlanCacheReuseAndEviction: each text is compiled once and reused by
// every later execution; a DDL statement evicts nothing but starts a new
// schema epoch, and a handle bound in the old one re-binds at its next run.
func TestPlanCacheReuseAndEviction(t *testing.T) {
	e := NewEngine()
	applyText(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	for i := 0; i < 10; i++ {
		applyText(t, e, "INSERT INTO t (v) VALUES (?)", Int64(int64(i)))
	}
	const sel = "SELECT v FROM t WHERE v = ?"
	applyText(t, e, sel, Int64(3))
	if st := e.PlanCacheStats(); st.Size != 3 || st.Misses != 3 || st.Hits != 9 {
		t.Fatalf("cache %+v, want 3 texts (DDL, INSERT, SELECT) parsed once each and 9 reuses", st)
	}
	h, err := e.Prepare(sel)
	if err != nil {
		t.Fatal(err)
	}
	epochs := func() (engine, handle uint64) {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.epoch, h.epoch
	}
	for _, stmt := range []string{
		"CREATE TABLE u (id INTEGER)",
		"CREATE INDEX t_v ON t (v)",
		"CREATE ORDERED INDEX IF NOT EXISTS t_v2 ON t (v)", // the upgrade path too
	} {
		mustExec(t, e, sel, Int64(1))
		before, bound := epochs()
		if bound != before {
			t.Fatalf("before %q: handle bound in epoch %d, engine at %d", stmt, bound, before)
		}
		size := e.PlanCacheStats().Size
		mustExec(t, e, stmt)
		if after, _ := epochs(); after == before {
			t.Fatalf("%q did not start a new schema epoch", stmt)
		}
		if got := e.PlanCacheStats().Size; got < size {
			t.Fatalf("%q dropped compiled statements: %d -> %d", stmt, size, got)
		}
		if res := mustExec(t, e, sel, Int64(1)); fmt.Sprint(res.Rows) != "[[1]]" {
			t.Fatalf("after %q: %s = %v", stmt, sel, res.Rows)
		}
		if now, bound := epochs(); bound != now {
			t.Fatalf("after %q: handle still bound in epoch %d, engine at %d", stmt, bound, now)
		}
	}
}

// TestPlanCacheRestoreEviction: Restore replaces the schema wholesale; it
// starts a new epoch like DDL, and a compiled statement re-binds to the
// restored tables.
func TestPlanCacheRestoreEviction(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	mustExec(t, e, "INSERT INTO t (v) VALUES (?)", Int64(1))
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO t (v) VALUES (?)", Int64(2))

	mustExec(t, e, "SELECT v FROM t WHERE v = ?", Int64(1))
	e.mu.Lock()
	before, tbl := e.epoch, e.tables["t"]
	e.mu.Unlock()
	if err := e.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	after, restored := e.epoch, e.tables["t"]
	e.mu.Unlock()
	if after == before || restored == tbl {
		t.Fatalf("Restore kept epoch %d (was %d) or the old table", after, before)
	}
	// The statement compiled against the replaced table answers from the
	// restored one.
	res := mustExec(t, e, "SELECT v FROM t WHERE v = ?", Int64(1))
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("post-restore select got %v", res.Rows)
	}
	if res := mustExec(t, e, "SELECT COUNT(*) FROM t"); res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("post-restore count got %v, want the snapshot's 1 row", res.Rows)
	}
}

// TestPlanCacheBound: the cache never holds more than planCacheSize ad-hoc
// texts; the text that would exceed the cap drops them whole, and the dropped
// statements are what the evictions counter reports. Prepared handles are
// pinned: they survive the drop and are not counted against the bound.
func TestPlanCacheBound(t *testing.T) {
	e := NewEngine()
	applyText(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)") // the first ad-hoc text
	pinned, err := e.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < planCacheSize+99; i++ {
		applyText(t, e, fmt.Sprintf("SELECT v FROM t WHERE v = %d", i))
		if n := len(e.plans.adhoc); n > planCacheSize {
			t.Fatalf("cache holds %d ad-hoc texts after %d, cap is %d", n, i+2, planCacheSize)
		}
	}
	st := e.PlanCacheStats()
	if st.Size != 101 || st.Evictions != planCacheSize {
		t.Fatalf("after cap+100 ad-hoc texts and one prepared: size %d, evictions %d; want 101 and %d",
			st.Size, st.Evictions, planCacheSize)
	}
	if again, err := e.Prepare("SELECT v FROM t WHERE id = ?"); err != nil || again != pinned {
		t.Fatalf("the prepared handle did not survive the drop (%v)", err)
	}
}

// TestPlanCacheReplayByteIdentical is the replica-divergence regression test
// for the plan cache: statements executed through cached plans on a "leader"
// engine, shipped through the commit hook, and replayed with ApplyEntry on a
// "follower" engine (whose replay path also hits its own plan cache) must
// leave both engines in byte-identical snapshot state — including across a
// mid-stream DDL that starts a new schema epoch.
func TestPlanCacheReplayByteIdentical(t *testing.T) {
	leader := NewEngine()
	wal := leaderLog()
	leader.SetCommitHook(wal.Append)

	rng := rand.New(rand.NewSource(7))
	mustExec(t, leader, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER, prio INTEGER, s TEXT)")
	for i := 0; i < 50; i++ {
		mustExec(t, leader, "INSERT INTO q (wt, prio, s) VALUES (?, ?, ?)", Int64(int64(rng.Intn(3))), Int64(int64(rng.Intn(20))), Text("x"))
	}
	// DDL mid-stream: later executions of the same texts re-bind their plans.
	mustExec(t, leader, "CREATE ORDERED INDEX q_prio ON q (prio)")
	for i := 0; i < 50; i++ {
		switch rng.Intn(3) {
		case 0:
			mustExec(t, leader, "INSERT INTO q (wt, prio, s) VALUES (?, ?, ?)", Int64(int64(rng.Intn(3))), Int64(int64(rng.Intn(20))), Text("y"))
		case 1:
			mustExec(t, leader, "UPDATE q SET prio = ? WHERE id = ?", Int64(int64(rng.Intn(20))), Int64(int64(rng.Intn(50)+1)))
		case 2:
			mustExec(t, leader, "DELETE FROM q WHERE id = ?", Int64(int64(rng.Intn(50)+1)))
		}
	}

	follower := NewEngine()
	entries, ok := entriesSince(t, wal, 0)
	if !ok {
		t.Fatal("WAL compacted unexpectedly")
	}
	for _, ent := range entries {
		if err := follower.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}

	var ls, fs bytes.Buffer
	if err := leader.Snapshot(&ls); err != nil {
		t.Fatal(err)
	}
	if err := follower.Snapshot(&fs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ls.Bytes(), fs.Bytes()) {
		t.Fatalf("replayed state diverges from leader state (%d vs %d snapshot bytes)",
			ls.Len(), fs.Len())
	}
}

// TestPreparedRebindsAcrossSchemaChange: a prepared handle answers exactly as
// a fresh compile of its text does — on an engine restored from the same
// state — after each schema change that starts a new epoch: a DROP + CREATE
// that puts the columns in another order (the shape of core's migrateSchema
// rebuild), a CREATE ORDERED INDEX that upgrades a hash index in place, and
// an in-place Restore of a snapshot from before both.
func TestPreparedRebindsAcrossSchemaChange(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER, prio INTEGER, s TEXT)")
	mustExec(t, e, "CREATE INDEX q_wt ON q (wt)")
	mustExec(t, e, "CREATE INDEX q_prio ON q (prio)")
	for i := 0; i < 40; i++ {
		mustExec(t, e, "INSERT INTO q (wt, prio, s) VALUES (?, ?, ?)", Int64(int64(i%3)), Int64(int64(i%7)), Text(fmt.Sprint("s", i%5)))
	}
	var first bytes.Buffer
	if err := e.Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		sql  string
		args []Value
	}{
		{"SELECT id, s FROM q WHERE wt = ? ORDER BY prio DESC, id ASC LIMIT ?", []Value{Int64(1), Int64(4)}},
		{"SELECT id, wt, prio, s FROM q WHERE id IN (?...)", []Value{Int64(3), Int64(17), Int64(40)}},
		{"SELECT COUNT(*) FROM q WHERE wt = ?", []Value{Int64(2)}},
		{"SELECT prio, s FROM q WHERE s = ? AND wt = ?", []Value{Text("s3"), Int64(0)}},
	}
	const write = "UPDATE q SET prio = ?, s = ? WHERE id = ?"
	handles := make([]*Prepared, len(reads))
	for i, r := range reads {
		var err error
		if handles[i], err = e.Prepare(r.sql); err != nil {
			t.Fatal(err)
		}
	}
	upd, err := e.Prepare(write)
	if err != nil {
		t.Fatal(err)
	}
	round := int64(0)
	check := func(stage string) {
		t.Helper()
		var snap bytes.Buffer
		if err := e.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		ref := NewEngine()
		if err := ref.Restore(&snap); err != nil {
			t.Fatal(err)
		}
		for i, r := range reads {
			var got [][]Value
			if _, err := e.TxLogged(func(tx *Tx) error {
				if strings.HasPrefix(r.sql, "SELECT COUNT(*)") {
					n, err := tx.Count(handles[i], r.args...)
					got = [][]Value{{Int64(int64(n))}}
					return err
				}
				return tx.Query(handles[i], r.args, func(row []Value) error {
					got = append(got, slices.Clone(row))
					return nil
				})
			}); err != nil {
				t.Fatalf("%s: %q through its handle: %v", stage, r.sql, err)
			}
			want := mustExec(t, ref, r.sql, r.args...)
			if fmt.Sprint(got) != fmt.Sprint(want.Rows) || len(want.Rows) == 0 {
				t.Fatalf("%s: %q through its handle = %v, a fresh compile = %v", stage, r.sql, got, want.Rows)
			}
		}
		round++
		args := []Value{Int64(100 + round), Text(fmt.Sprint("w", round)), Int64(5 + round)}
		if _, err := e.TxLogged(func(tx *Tx) error {
			_, err := tx.Run(upd, slices.Clone(args)...)
			return err
		}); err != nil {
			t.Fatalf("%s: %q through its handle: %v", stage, write, err)
		}
		mustExec(t, ref, write, args[0], args[1], args[2])
		var a, b bytes.Buffer
		if err := e.Snapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := ref.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: %q through its handle leaves another state than a fresh compile", stage, write)
		}
	}
	check("first binding")

	// The same rows under a table whose columns sit in other positions, built
	// on a second engine and restored into e.
	rows := mustExec(t, e, "SELECT id, wt, prio, s FROM q").Rows
	moved := NewEngine()
	mustExec(t, moved, "CREATE TABLE q (s TEXT, prio INTEGER, wt INTEGER, id INTEGER PRIMARY KEY AUTOINCREMENT)")
	mustExec(t, moved, "CREATE INDEX q_wt ON q (wt)")
	mustExec(t, moved, "CREATE INDEX q_prio ON q (prio)")
	for _, r := range rows {
		mustExec(t, moved, "INSERT INTO q (id, wt, prio, s) VALUES (?, ?, ?, ?)", r[0], r[1], r[2], r[3])
	}
	var reordered bytes.Buffer
	if err := moved.Snapshot(&reordered); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(&reordered); err != nil {
		t.Fatal(err)
	}
	check("after a Restore with the columns reordered")

	mustExec(t, e, "CREATE ORDERED INDEX IF NOT EXISTS q_prio ON q (prio)")
	e.mu.Lock()
	top := e.bindLocked(handles[0]).top
	e.mu.Unlock()
	if top == nil {
		t.Fatal("the top-n query did not re-bind to the upgraded ordered index")
	}
	check("after the ordered-index upgrade")

	if err := e.Restore(&first); err != nil {
		t.Fatal(err)
	}
	check("after an in-place Restore")
}

// TestPreparedMisuseRefused: a handle runs only on the engine that prepared
// it and only through the call its statement kind takes; each refusal
// leaves the tables and the log as they were.
func TestPreparedMisuseRefused(t *testing.T) {
	e, w := newQueueEngine(t, 3)
	other := NewEngine()
	mustExec(t, other, "CREATE TABLE q (id INTEGER PRIMARY KEY, p INTEGER)")
	prep := func(e *Engine, sql string) *Prepared {
		h, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	foreign := prep(other, "UPDATE q SET p = ? WHERE id = ?")
	sel, upd := prep(e, "SELECT p FROM q WHERE id = ?"), prep(e, "UPDATE q SET p = ? WHERE id = ?")
	count := prep(e, "SELECT COUNT(*) FROM q")
	before, logged := snapshotBytes(t, e), w.LastIndex()
	for name, fn := range map[string]func(tx *Tx) error{
		"Run of another engine's handle": func(tx *Tx) error {
			_, err := tx.Run(foreign, Int64(1), Int64(1))
			return err
		},
		"RunRows of another engine's handle": func(tx *Tx) error {
			_, err := tx.RunRows(foreign, []Value{Int64(1), Int64(1)})
			return err
		},
		"Run of a SELECT": func(tx *Tx) error {
			_, err := tx.Run(sel, Int64(1))
			return err
		},
		"Query of an UPDATE": func(tx *Tx) error {
			return tx.Query(upd, []Value{Int64(5), Int64(1)}, func([]Value) error { return nil })
		},
		"Query of a COUNT(*)": func(tx *Tx) error {
			return tx.Query(count, nil, func([]Value) error { return nil })
		},
		"Count of a SELECT": func(tx *Tx) error {
			_, err := tx.Count(sel, Int64(1))
			return err
		},
		"Run with a missing argument": func(tx *Tx) error {
			_, err := tx.Run(upd, Int64(5))
			return err
		},
	} {
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
}
