package minisql

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestPlanCacheReuseAndEviction(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	if n := e.plans.len(); n != 0 {
		t.Fatalf("cache holds %d plans after DDL, want 0 (DDL must purge)", n)
	}

	for i := 0; i < 10; i++ {
		mustExec(t, e, "INSERT INTO t (v) VALUES (?)", i)
	}
	mustExec(t, e, "SELECT v FROM t WHERE v = ?", 3)
	if n := e.plans.len(); n != 2 {
		t.Fatalf("cache holds %d plans, want 2 (one INSERT text, one SELECT text)", n)
	}

	// Every DDL statement evicts the whole cache.
	ddl := []string{
		"CREATE TABLE u (id INTEGER)",
		"CREATE INDEX t_v ON t (v)",
		"CREATE ORDERED INDEX IF NOT EXISTS t_v2 ON t (v)", // upgrade path purges too
		"DROP TABLE u",
	}
	for _, stmt := range ddl {
		mustExec(t, e, "SELECT v FROM t WHERE v = ?", 1)
		if e.plans.len() == 0 {
			t.Fatalf("setup: expected a cached plan before %q", stmt)
		}
		mustExec(t, e, stmt)
		if n := e.plans.len(); n != 0 {
			t.Fatalf("cache holds %d plans after %q, want 0", n, stmt)
		}
	}
}

func TestPlanCacheRestoreEviction(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	mustExec(t, e, "INSERT INTO t (v) VALUES (?)", 1)
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	mustExec(t, e, "SELECT v FROM t WHERE v = ?", 1)
	if e.plans.len() == 0 {
		t.Fatal("setup: expected cached plans before Restore")
	}
	if err := e.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n := e.plans.len(); n != 0 {
		t.Fatalf("cache holds %d plans after Restore, want 0", n)
	}
	// And the engine still answers correctly against the restored schema.
	res := mustExec(t, e, "SELECT v FROM t WHERE v = ?", 1)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("post-restore select got %v", res.Rows)
	}
}

// TestPlanCacheBound: the cache never holds more than planCacheSize texts; the
// text that would exceed the cap drops the map whole, and the dropped plans
// are what the evictions counter reports.
func TestPlanCacheBound(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)")
	for i := 0; i < planCacheSize+100; i++ {
		mustExec(t, e, fmt.Sprintf("SELECT v FROM t WHERE v = %d", i))
		if n := e.plans.len(); n > planCacheSize {
			t.Fatalf("cache holds %d plans after %d texts, cap is %d", n, i+1, planCacheSize)
		}
	}
	st := e.PlanCacheStats()
	if st.Size != 100 || st.Evictions != planCacheSize {
		t.Fatalf("after cap+100 texts: size %d, evictions %d; want 100 and %d",
			st.Size, st.Evictions, planCacheSize)
	}
}

// TestPlanCacheReplayByteIdentical is the replica-divergence regression test
// for the plan cache: statements executed through cached plans on a "leader"
// engine, shipped through the commit hook, and replayed with ApplyEntry on a
// "follower" engine (whose replay path also hits its own plan cache) must
// leave both engines in byte-identical snapshot state — including across a
// mid-stream DDL that invalidates the cache.
func TestPlanCacheReplayByteIdentical(t *testing.T) {
	leader := NewEngine()
	wal := NewWAL(0)
	leader.SetCommitHook(func(stmts []Stmt) (uint64, error) { return wal.Append(stmts).Index, nil })

	rng := rand.New(rand.NewSource(7))
	mustExec(t, leader, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER, prio INTEGER, s TEXT)")
	for i := 0; i < 50; i++ {
		mustExec(t, leader, "INSERT INTO q (wt, prio, s) VALUES (?, ?, ?)", rng.Intn(3), rng.Intn(20), "x")
	}
	// DDL mid-stream: later executions of the same texts re-parse and re-cache.
	mustExec(t, leader, "CREATE ORDERED INDEX q_prio ON q (prio)")
	for i := 0; i < 50; i++ {
		switch rng.Intn(3) {
		case 0:
			mustExec(t, leader, "INSERT INTO q (wt, prio, s) VALUES (?, ?, ?)", rng.Intn(3), rng.Intn(20), "y")
		case 1:
			mustExec(t, leader, "UPDATE q SET prio = ? WHERE id = ?", rng.Intn(20), rng.Intn(50)+1)
		case 2:
			mustExec(t, leader, "DELETE FROM q WHERE id = ?", rng.Intn(50)+1)
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
