package minisql

import (
	"bytes"
	"testing"
)

// TestSnapshotPreservesIndexesAndNextKey pins down the gob fields that had no
// direct coverage: secondary index definitions and the AUTOINCREMENT nextKey
// must survive a snapshot round trip, or a restored replica would serve
// unindexed scans and hand out duplicate task ids.
func TestSnapshotPreservesIndexesAndNextKey(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER, v TEXT)")
	mustExec(t, e, "CREATE INDEX t_wt ON t (wt)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, "INSERT INTO t (wt, v) VALUES (?, ?)", i%2, "x")
	}
	// Delete the highest row so nextKey (6) is ahead of the max stored id (4):
	// only the persisted nextKey field can restore it correctly.
	mustExec(t, e, "DELETE FROM t WHERE id = ?", 5)

	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	e2 := NewEngine()
	if err := e2.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	t2 := e2.tables["t"]
	if t2 == nil {
		t.Fatal("restored engine lost table t")
	}
	if _, ok := t2.indexes["wt"]; !ok {
		t.Fatal("restored engine lost the secondary index on wt")
	}
	if _, ok := t2.indexes["id"]; !ok {
		t.Fatal("restored engine lost the primary-key index on id")
	}
	if t2.nextKey != 6 {
		t.Fatalf("restored nextKey = %d, want 6", t2.nextKey)
	}

	// The restored index actually answers queries.
	res := mustExec(t, e2, "SELECT id FROM t WHERE wt = ?", 1)
	if len(res.Rows) != 2 {
		t.Fatalf("indexed lookup on restored engine returned %d rows, want 2", len(res.Rows))
	}

	// AUTOINCREMENT continues where the source left off.
	ins := mustExec(t, e2, "INSERT INTO t (wt, v) VALUES (?, ?)", 0, "new")
	if ins.LastInsertID != 6 {
		t.Fatalf("restored engine allocated id %d, want 6", ins.LastInsertID)
	}
}

// TestRestoredEngineReplaysWAL is the replication bootstrap path in miniature:
// snapshot at index N, then replay WAL entries > N, must equal the source.
func TestRestoredEngineReplaysWAL(t *testing.T) {
	src, w := newHookedEngine(t,
		"CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", "before-1")
	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", "before-2")

	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	snapIndex := w.LastIndex()

	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", "after-1")
	mustExec(t, src, "UPDATE t SET v = ? WHERE id = ?", "rewritten", 1)

	replica := NewEngine()
	if err := replica.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	entries, ok := entriesSince(t, w, snapIndex)
	if !ok || len(entries) != 2 {
		t.Fatalf("RecordsSince(%d): ok=%v len=%d, want 2", snapIndex, ok, len(entries))
	}
	for _, ent := range entries {
		if err := replica.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}

	const q = "SELECT id, v FROM t ORDER BY id ASC"
	want, got := mustExec(t, src, q), mustExec(t, replica, q)
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("replica has %d rows, source %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j].Compare(got.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: source %v replica %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}
