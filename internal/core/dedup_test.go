package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"osprey/internal/minisql"
)

// TestSubmitTaskDedupKey: a resubmit carrying the same dedup key inserts
// nothing and returns the original task id — the idempotency that
// disambiguates retries after ambiguous (quorum-timeout) failures.
func TestSubmitTaskDedupKey(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx := context.Background()
	res1, err := db.Submit(ctx, "dedup", 1, "payload", WithDedupKey("k1"), WithPriority(7))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Token != 0 {
		// No commit hook installed: tokens are 0 on a plain DB.
		t.Fatalf("token without a statement log = %d, want 0", res1.Token)
	}
	id1 := res1.ID

	res2, err := db.Submit(ctx, "dedup", 1, "payload", WithDedupKey("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.ID != id1 {
		t.Fatalf("duplicate submit returned id %d, want original %d", res2.ID, id1)
	}
	counts, err := db.Counts(ctx, "dedup")
	if err != nil {
		t.Fatal(err)
	}
	if counts[StatusQueued] != 1 {
		t.Fatalf("counts after duplicate submit = %v, want exactly 1 queued", counts)
	}
	// The original's attributes (priority) are preserved, not overwritten.
	task, err := db.GetTask(ctx, id1)
	if err != nil || task.Priority != 7 {
		t.Fatalf("original task after dedup = %+v, %v; want priority 7", task, err)
	}

	// A different key is a different task; no key never deduplicates.
	id3, err := db.Submit(ctx, "dedup", 1, "payload", WithDedupKey("k2"))
	if err != nil {
		t.Fatal(err)
	}
	id4, err := db.Submit(ctx, "dedup", 1, "payload")
	if err != nil {
		t.Fatal(err)
	}
	id5, err := db.Submit(ctx, "dedup", 1, "payload")
	if err != nil {
		t.Fatal(err)
	}
	if id3.ID == id1 || id4.ID == id1 || id5.ID == id4.ID {
		t.Fatalf("distinct submits collapsed: ids %d %d %d %d", id1, id3.ID, id4.ID, id5.ID)
	}
}

// TestSubmitTasksDedupKeys: batch dedup — a fully retried batch returns the
// original ids with no new rows, and a partially landed batch re-submits
// only the missing payloads.
func TestSubmitTasksDedupKeys(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx := context.Background()
	payloads := []string{"a", "b", "c"}
	keys := []string{"ba", "bb", "bc"}
	batch, err := db.SubmitBatch(ctx, "batch", 1, payloads, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	ids := batch.IDs
	if len(ids) != 3 {
		t.Fatalf("got %d ids, want 3", len(ids))
	}

	// Full retry: identical ids, still 3 tasks.
	again, err := db.SubmitBatch(ctx, "batch", 1, payloads, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if again.IDs[i] != ids[i] {
			t.Fatalf("retried batch id[%d] = %d, want original %d", i, again.IDs[i], ids[i])
		}
	}
	counts, err := db.Counts(ctx, "batch")
	if err != nil {
		t.Fatal(err)
	}
	if counts[StatusQueued] != 3 {
		t.Fatalf("counts after retried batch = %v, want 3 queued", counts)
	}

	// Partial retry with one new payload: only it is inserted.
	mixed, err := db.SubmitBatch(ctx, "batch", 1, []string{"a", "d"}, nil, []string{"ba", "bd"})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.IDs[0] != ids[0] {
		t.Fatalf("mixed batch reused id %d for key ba, want %d", mixed.IDs[0], ids[0])
	}
	if mixed.IDs[1] == ids[0] || mixed.IDs[1] == ids[1] || mixed.IDs[1] == ids[2] {
		t.Fatalf("new key bd reused an existing id %d", mixed.IDs[1])
	}
	counts, _ = db.Counts(ctx, "batch")
	if counts[StatusQueued] != 4 {
		t.Fatalf("counts after mixed batch = %v, want 4 queued", counts)
	}

	// Key-count validation.
	if _, err := db.SubmitBatch(ctx, "batch", 1, payloads, nil, []string{"only-one"}); err == nil {
		t.Fatal("mismatched dedup key count accepted")
	}
}

// TestRestoreEnsuresOrderedIndex: a snapshot from the version that already
// had dedup_key but predated the eq_out_prio ordered index must come back
// with the index — migrateSchema re-applies the idempotent schema statements
// after every restore, so later schema additions are never silently dropped
// (losing the index would quietly demote every pop to scan-and-sort).
func TestRestoreEnsuresOrderedIndex(t *testing.T) {
	old := minisql.NewEngine()
	for _, stmt := range []string{
		`CREATE TABLE eq_exp (exp_id TEXT PRIMARY KEY, created_at INTEGER)`,
		`CREATE TABLE eq_tasks (
			task_id INTEGER PRIMARY KEY AUTOINCREMENT,
			exp_id TEXT, work_type INTEGER, status TEXT, payload TEXT,
			result TEXT, pool TEXT, priority INTEGER,
			created_at INTEGER, start_at INTEGER, stop_at INTEGER, dedup_key TEXT)`,
		`CREATE INDEX eq_tasks_status ON eq_tasks (status)`,
		`CREATE INDEX eq_tasks_pool ON eq_tasks (pool)`,
		`CREATE INDEX eq_tasks_dedup ON eq_tasks (dedup_key)`,
		`CREATE TABLE eq_out_q (task_id INTEGER PRIMARY KEY, work_type INTEGER, priority INTEGER)`,
		`CREATE INDEX eq_out_wt ON eq_out_q (work_type)`,
		`CREATE TABLE eq_in_q (task_id INTEGER PRIMARY KEY, work_type INTEGER)`,
		`CREATE TABLE eq_tags (task_id INTEGER, tag TEXT)`,
		`CREATE INDEX eq_tags_task ON eq_tags (task_id)`,
		`INSERT INTO eq_tasks (exp_id, work_type, status, payload, result, pool,
			priority, created_at, start_at, stop_at, dedup_key)
		 VALUES ('legacy', 1, 'queued', 'p1', '', '', 3, 1, 0, 0, ''),
		        ('legacy', 1, 'queued', 'p2', '', '', 8, 1, 0, 0, '')`,
		`INSERT INTO eq_out_q (task_id, work_type, priority) VALUES (1, 1, 3), (2, 1, 8)`,
	} {
		if err := runText(old, stmt); err != nil {
			t.Fatalf("building pre-ordered-index state: %v", err)
		}
	}
	var snap bytes.Buffer
	if err := old.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	db, err := RestoreDB(&snap)
	if err != nil {
		t.Fatalf("restoring pre-ordered-index snapshot: %v", err)
	}
	defer db.Close()

	// The (now composite) ordered index must already exist: creating it
	// again WITHOUT IF NOT EXISTS has to fail with "already exists".
	if err := runText(db.Engine(),
		"CREATE ORDERED INDEX eq_out_prio ON eq_out_q (priority, task_id)"); err == nil {
		t.Fatal("eq_out_prio missing after restore: migrateSchema did not re-apply the schema")
	}
	// And pops come back in priority order off the restored queue.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := db.QueryTasks(ctx, 1, 2, "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 2 || res.Tasks[0].ID != 2 || res.Tasks[1].ID != 1 {
		t.Fatalf("post-restore pop order = %+v, want task 2 (prio 8) then 1 (prio 3)", res.Tasks)
	}
}
