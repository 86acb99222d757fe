package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"osprey/internal/minisql"
	"osprey/internal/wait"
	"osprey/internal/watch"
)

// schema is the five-table EMEWS DB layout from paper §IV-C: a tasks table,
// output and input queue tables, an experiments table, and a tags table,
// all linked by the shared task identifier.
var schema = []string{
	`CREATE TABLE IF NOT EXISTS eq_exp (
		exp_id TEXT PRIMARY KEY,
		created_at INTEGER)`,
	`CREATE TABLE IF NOT EXISTS eq_tasks (
		task_id INTEGER PRIMARY KEY AUTOINCREMENT,
		exp_id TEXT,
		work_type INTEGER,
		status TEXT,
		payload TEXT,
		result TEXT,
		pool TEXT,
		priority INTEGER,
		created_at INTEGER,
		start_at INTEGER,
		stop_at INTEGER,
		dedup_key TEXT)`,
	`CREATE INDEX IF NOT EXISTS eq_tasks_status ON eq_tasks (status)`,
	`CREATE INDEX IF NOT EXISTS eq_tasks_pool ON eq_tasks (pool)`,
	// The dedup index is what makes WithDedupKey submits idempotent: the
	// existence check inside the submit transaction is an indexed lookup, and
	// because the check runs under the engine's writer lock it is race-free.
	`CREATE INDEX IF NOT EXISTS eq_tasks_dedup ON eq_tasks (dedup_key)`,
	`CREATE TABLE IF NOT EXISTS eq_out_q (
		task_id INTEGER PRIMARY KEY,
		work_type INTEGER,
		priority INTEGER)`,
	`CREATE INDEX IF NOT EXISTS eq_out_wt ON eq_out_q (work_type)`,
	// The composite ordered index serves the pop's exact ORDER BY
	// (priority DESC, task_id ASC) ... LIMIT n directly off its sorted side.
	// The second key column is what keeps the top-n scan bounded when every
	// queued task shares one priority — the common uniform-priority workload
	// previously degenerated into a single equal-key run the scan had to
	// visit end to end.
	`CREATE ORDERED INDEX IF NOT EXISTS eq_out_prio ON eq_out_q (priority, task_id)`,
	`CREATE TABLE IF NOT EXISTS eq_in_q (
		task_id INTEGER PRIMARY KEY,
		work_type INTEGER)`,
	`CREATE TABLE IF NOT EXISTS eq_tags (
		task_id INTEGER,
		tag TEXT)`,
	`CREATE INDEX IF NOT EXISTS eq_tags_task ON eq_tags (task_id)`,
}

// A statement is one that core issues, apart from the schema's DDL;
// statementSQL holds the texts in declaration order. Every DB prepares each
// once on its own engine (newDB) and runs the handle in db.stmts with Value
// arguments. The handles are also how the watch classifier (events.go)
// recognises a committed transition: on a follower, ApplyEntry
// resolves each record's text to the same pinned handle. A write's text is
// what its log records carry, byte for byte, so editing one changes the log.
// The pop statements use the width-oblivious IN (?...) spread, so every batch
// size runs one handle and commits one statement per table.
type statement int

var statementSQL []string

func newStatement(sql string) statement {
	statementSQL = append(statementSQL, sql)
	return statement(len(statementSQL) - 1)
}

var (
	expCount   = newStatement("SELECT COUNT(*) FROM eq_exp WHERE exp_id = ?")
	expInsert  = newStatement("INSERT INTO eq_exp (exp_id, created_at) VALUES (?, ?)")
	dedupSel   = newStatement("SELECT task_id FROM eq_tasks WHERE dedup_key = ?")
	taskInsert = newStatement(`INSERT INTO eq_tasks (exp_id, work_type, status, payload, result,
			pool, priority, created_at, start_at, stop_at, dedup_key)
		 VALUES (?, ?, ?, ?, '', '', ?, ?, 0, 0, ?)`)
	outQInsert = newStatement("INSERT INTO eq_out_q (task_id, work_type, priority) VALUES (?, ?, ?)")
	tagInsert  = newStatement("INSERT INTO eq_tags (task_id, tag) VALUES (?, ?)")

	popPick        = newStatement("SELECT task_id, priority FROM eq_out_q WHERE work_type = ? ORDER BY priority DESC, task_id ASC LIMIT ?")
	popTasksDel    = newStatement("DELETE FROM eq_out_q WHERE task_id IN (?...)")
	popTasksUpd    = newStatement("UPDATE eq_tasks SET status = ?, pool = ?, start_at = ? WHERE task_id IN (?...)")
	popTasksSel    = newStatement("SELECT task_id, exp_id, payload, created_at FROM eq_tasks WHERE task_id IN (?...)")
	reportSel      = newStatement("SELECT status FROM eq_tasks WHERE task_id = ?")
	reportUpd      = newStatement("UPDATE eq_tasks SET status = ?, result = ?, stop_at = ? WHERE task_id = ?")
	inQInsert      = newStatement("INSERT INTO eq_in_q (task_id, work_type) VALUES (?, ?)")
	popResultsPick = newStatement("SELECT task_id FROM eq_in_q WHERE task_id IN (?...) ORDER BY task_id ASC LIMIT ?")
	popResultsDel  = newStatement("DELETE FROM eq_in_q WHERE task_id IN (?...)")
	popResultsSel  = newStatement("SELECT task_id, result FROM eq_tasks WHERE task_id IN (?...)")

	prioOutQUpd  = newStatement("UPDATE eq_out_q SET priority = ? WHERE task_id = ?")
	prioTasksUpd = newStatement("UPDATE eq_tasks SET priority = ? WHERE task_id = ?")
	cancelDel    = newStatement("DELETE FROM eq_out_q WHERE task_id = ?")
	cancelUpd    = newStatement("UPDATE eq_tasks SET status = ?, stop_at = ? WHERE task_id = ?")
	requeueSel   = newStatement("SELECT task_id, work_type, priority FROM eq_tasks WHERE pool = ? AND status = ?")
	requeueUpd   = newStatement("UPDATE eq_tasks SET status = ?, pool = '', start_at = 0 WHERE task_id = ?")

	statusesSel    = newStatement("SELECT task_id, status FROM eq_tasks WHERE task_id IN (?...)")
	prioritiesSel  = newStatement("SELECT task_id, priority FROM eq_out_q WHERE task_id IN (?...)")
	countStatus    = newStatement("SELECT COUNT(*) FROM eq_tasks WHERE status = ?")
	countStatusExp = newStatement("SELECT COUNT(*) FROM eq_tasks WHERE status = ? AND exp_id = ?")
	tagsSel        = newStatement("SELECT tag FROM eq_tags WHERE task_id = ?")
	taskSel        = newStatement("SELECT exp_id, work_type, status, payload, result, pool, priority, created_at, start_at, stop_at FROM eq_tasks WHERE task_id = ?")
	outQTypes      = newStatement("SELECT task_id, work_type FROM eq_out_q")
	runningTypes   = newStatement("SELECT task_id, work_type FROM eq_tasks WHERE status = ?")
)

// DB is the in-process EMEWS task database. It is safe for concurrent use by
// any number of ME algorithms and worker pools.
//
// DB implements Session directly: with a single local copy of the data every
// read is trivially fresh, so the per-read consistency levels are accepted
// and equivalent, and Token reports the engine's commit high-water mark —
// a bound covering every write this process has made, valid to hand to
// remote sessions reading through followers.
type DB struct {
	eng    *minisql.Engine
	stmts  []*minisql.Prepared // by statement
	outN   wait.Signal         // woken by the commit observer when the output queue grows
	inN    wait.Signal         // woken by the commit observer when the input queue grows
	met    *dbMetrics
	store  *minisql.Store     // durable log + checkpoints (nil: in-memory)
	log    *minisql.Log       // the node's commit log, over store
	hub    *watch.Hub         // task-state transition fan-out (events.go)
	gate   watchGate          // quorum gate in front of the hub (events.go)
	trs    []watch.Transition // the commit observer's classify buffer, under the engine lock
	closed atomic.Bool
}

var _ Session = (*DB)(nil)

// newDB wraps an engine whose schema is in place, preparing every statement
// core issues on it. The texts are constants, so one that does not parse is a
// bug, not an input.
func newDB(eng *minisql.Engine, store *minisql.Store) *DB {
	db := &DB{eng: eng, met: newDBMetrics(eng), store: store, log: minisql.NewLog(store)}
	for _, sql := range statementSQL {
		h, err := eng.Prepare(sql)
		if err != nil {
			panic(fmt.Sprintf("eqsql: preparing %q: %v", sql, err))
		}
		db.stmts = append(db.stmts, h)
	}
	db.attachWatch()
	return db
}

// NewDB creates an empty EMEWS task database with the standard schema.
func NewDB() (*DB, error) {
	eng := minisql.NewEngine()
	if err := migrateSchema(eng); err != nil {
		return nil, err
	}
	return newDB(eng, nil), nil
}

// Close shuts the database down, waking all polling queries with ErrClosed
// and flushing and closing the durable store when one is attached.
func (db *DB) Close() {
	db.closed.Store(true)
	db.wakeAll()
	if db.store != nil {
		db.store.Close()
	}
}

// Snapshot persists the full task-database state (fault tolerance: the
// service can be stopped and restarted elsewhere, §II-B1c).
func (db *DB) Snapshot(w io.Writer) error { return db.eng.Snapshot(w) }

// RestoreDB loads a snapshot produced by Snapshot into a fresh DB.
func RestoreDB(r io.Reader) (*DB, error) {
	db, err := NewDB()
	if err != nil {
		return nil, err
	}
	if err := db.Restore(r, 0); err != nil {
		return nil, err
	}
	return db, nil
}

// Restore replaces the database contents in place with a snapshot of the log
// up to token, which becomes the commit high-water mark, keeping the DB
// identity (and any servers holding it) intact. Replication uses this when a
// follower bootstraps from a leader snapshot. A refused snapshot leaves the
// database as it was.
func (db *DB) Restore(r io.Reader, token Token) error {
	if err := db.eng.Restore(r); err != nil {
		return err
	}
	db.eng.SetLastLogged(token)
	if err := migrateSchema(db.eng); err != nil {
		return err
	}
	// A restore invalidates the hub's history: subscribers are reset and the
	// depth/type maps reseeded from the restored tables, which may hold
	// queued and running tasks, with the resume floor at token.
	db.ResetWatch(token)
	db.wakeAll()
	return nil
}

// migrateSchema brings an engine's schema up to this version's by running the
// schema's idempotent statements: on an empty engine they create it, and on
// one restored from a snapshot or checkpoint they add what the snapshot
// predates. A snapshot carries only the tables and indexes that existed when
// it was written, so without the re-run a restore would silently drop later
// schema additions (canonically the eq_out_prio ordered index, and with it
// the pop fast path). CREATE ... IF NOT EXISTS no-ops on everything already
// present, and CREATE ORDERED INDEX upgrades an existing plain index in
// place. A snapshot from the single-column eq_out_prio era keeps its old
// (priority) index and gains the composite one; both stay correct, the
// composite serves the pops.
//
// The statements are upkeep every replica performs on its own copy, not a
// commit, so they are applied the way a shipped entry is (atomically, past
// the commit hook): a follower restoring in place has a hook that refuses.
func migrateSchema(eng *minisql.Engine) error {
	var migration minisql.LogEntry
	for _, stmt := range schema {
		migration.Stmts = append(migration.Stmts, minisql.Stmt{SQL: stmt})
	}
	if err := eng.ApplyEntry(migration); err != nil {
		return fmt.Errorf("eqsql: ensuring schema: %w", err)
	}
	return nil
}

// open reports why a call may not start: the database is closed or the
// caller's context has ended.
func (db *DB) open(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if ctx.Err() != nil {
		return ctxErr(ctx)
	}
	return nil
}

// commit runs fn as one logged transaction and waits until its log entry is
// durable, returning the commit token.
func (db *DB) commit(fn func(tx *minisql.Tx) error) (Token, error) {
	tok, err := db.eng.TxLogged(fn)
	if err == nil {
		err = db.waitDurable(tok)
	}
	return tok, err
}

// Engine exposes the underlying SQL engine so the replication layer can
// install a commit hook, replay shipped log entries, and take snapshots.
func (db *DB) Engine() *minisql.Engine { return db.eng }

// wakeAll wakes every parked long-poll for the two changes that reach the
// queues without passing the commit observer (events.go): Close, so pollers
// return ErrClosed, and an in-place Restore, which replaces the tables whole.
func (db *DB) wakeAll() {
	db.outN.Wake()
	db.inN.Wake()
}

func nowNano() int64 { return time.Now().UnixNano() }

// Token implements Session: the engine's commit high-water mark, which
// covers every write this database has committed or replayed.
func (db *DB) Token() Token { return db.eng.LastLogged() }

// ensureExp creates the experiment row on first reference.
func (db *DB) ensureExp(tx *minisql.Tx, expID string) error {
	n, err := tx.Count(db.stmts[expCount], minisql.Text(expID))
	if err != nil || n > 0 {
		return err
	}
	_, err = tx.Run(db.stmts[expInsert], minisql.Text(expID), minisql.Int64(nowNano()))
	return err
}

// dedupLookup returns the id of the existing task carrying key, if any. Keys
// are only ever checked when non-empty, so the unkeyed (empty-string) rows
// never match.
func (db *DB) dedupLookup(tx *minisql.Tx, key string) (id int64, found bool, err error) {
	err = tx.Query(db.stmts[dedupSel], []minisql.Value{minisql.Text(key)}, func(row []minisql.Value) error {
		if !found {
			id, found = row[0].AsInt(), true
		}
		return nil
	})
	return id, found, err
}

// insertTask inserts one task row plus its output-queue entry and returns the
// new task id.
func (db *DB) insertTask(tx *minisql.Tx, expID string, workType int, payload string, priority int, dedupKey string, now int64) (int64, error) {
	wt, prio := minisql.Int64(int64(workType)), minisql.Int64(int64(priority))
	res, err := tx.Run(db.stmts[taskInsert], minisql.Text(expID), wt, minisql.Text(string(StatusQueued)),
		minisql.Text(payload), prio, minisql.Int64(now), minisql.Text(dedupKey))
	if err != nil {
		return 0, err
	}
	id := res.LastInsertID
	if _, err := tx.Run(db.stmts[outQInsert], minisql.Int64(id), wt, prio); err != nil {
		return 0, err
	}
	return id, nil
}

// Submit implements Session. With a dedup key, a re-submit whose key already
// exists inserts nothing and returns the original task id; its token is the
// engine's commit high-water mark, which is ≥ the original insert's entry —
// so waiting on it (for quorum or freshness) still covers the original write.
func (db *DB) Submit(ctx context.Context, expID string, workType int, payload string, opts ...SubmitOption) (SubmitRes, error) {
	if err := db.open(ctx); err != nil {
		return SubmitRes{}, err
	}
	var o SubmitOptions
	for _, opt := range opts {
		opt(&o)
	}
	defer db.met.submit.ObserveSince(time.Now())
	var taskID int64
	dup := false
	tok, err := db.eng.TxLogged(func(tx *minisql.Tx) error {
		dup = false
		if o.DedupKey != "" {
			id, found, err := db.dedupLookup(tx, o.DedupKey)
			if err != nil {
				return err
			}
			if found {
				taskID, dup = id, true
				return nil
			}
		}
		if err := db.ensureExp(tx, expID); err != nil {
			return err
		}
		id, err := db.insertTask(tx, expID, workType, payload, o.Priority, o.DedupKey, nowNano())
		if err != nil {
			return err
		}
		taskID = id
		for _, tag := range o.Tags {
			if _, err := tx.Run(db.stmts[tagInsert], minisql.Int64(taskID), minisql.Text(tag)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return SubmitRes{}, err
	}
	if dup {
		return SubmitRes{ID: taskID, Token: db.eng.LastLogged()}, nil
	}
	if err := db.waitDurable(tok); err != nil {
		return SubmitRes{}, err
	}
	return SubmitRes{ID: taskID, Token: tok}, nil
}

// SubmitBatch implements Session.
func (db *DB) SubmitBatch(ctx context.Context, expID string, workType int, payloads []string, priorities []int, dedupKeys []string) (BatchRes, error) {
	if err := db.open(ctx); err != nil {
		return BatchRes{}, err
	}
	if len(payloads) == 0 {
		return BatchRes{}, nil
	}
	if len(priorities) > 1 && len(priorities) != len(payloads) {
		return BatchRes{}, fmt.Errorf("eqsql: SubmitBatch needs 0, 1, or %d priorities, got %d",
			len(payloads), len(priorities))
	}
	if len(dedupKeys) > 0 && len(dedupKeys) != len(payloads) {
		return BatchRes{}, fmt.Errorf("eqsql: SubmitBatch needs 0 or %d dedup keys, got %d",
			len(payloads), len(dedupKeys))
	}
	defer db.met.submitBatch.ObserveSince(time.Now())
	prioOf := func(i int) int {
		switch len(priorities) {
		case 0:
			return 0
		case 1:
			return priorities[0]
		default:
			return priorities[i]
		}
	}
	keyOf := func(i int) string {
		if len(dedupKeys) == 0 {
			return ""
		}
		return dedupKeys[i]
	}
	ids := make([]int64, 0, len(payloads))
	inserted := false
	tok, err := db.eng.TxLogged(func(tx *minisql.Tx) error {
		ids = ids[:0]
		inserted = false
		if err := db.ensureExp(tx, expID); err != nil {
			return err
		}
		now := nowNano()
		for i, payload := range payloads {
			if key := keyOf(i); key != "" {
				id, found, err := db.dedupLookup(tx, key)
				if err != nil {
					return err
				}
				if found {
					ids = append(ids, id)
					continue
				}
			}
			id, err := db.insertTask(tx, expID, workType, payload, prioOf(i), keyOf(i), now)
			if err != nil {
				return err
			}
			inserted = true
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		return BatchRes{}, err
	}
	if !inserted {
		// Every payload deduplicated: nothing new was logged, but the
		// high-water mark covers all the original inserts.
		return BatchRes{IDs: ids, Token: db.eng.LastLogged()}, nil
	}
	if err := db.waitDurable(tok); err != nil {
		return BatchRes{}, err
	}
	return BatchRes{IDs: ids, Token: tok}, nil
}

// QueryTasks implements Session. The pop is atomic: selected queue rows are
// deleted and the corresponding tasks marked running in one transaction, so
// two pools can never obtain the same task. The deadline comes from ctx;
// even an already-expired context gets one immediate attempt, so a ready
// task pops with a zero timeout.
func (db *DB) QueryTasks(ctx context.Context, workType, n int, pool string) (TasksRes, error) {
	if n <= 0 {
		return TasksRes{}, fmt.Errorf("eqsql: QueryTasks n must be positive, got %d", n)
	}
	for {
		if db.closed.Load() {
			return TasksRes{}, ErrClosed
		}
		// An explicit cancellation aborts before the pop mutates the queues;
		// only a deadline expiry earns the one-shot immediate attempt.
		if err := ctx.Err(); errors.Is(err, context.Canceled) {
			return TasksRes{}, err
		}
		wake := db.outN.Wait()
		tasks, tok, err := db.tryPopTasks(workType, n, pool)
		if err != nil {
			return TasksRes{}, err
		}
		if len(tasks) > 0 {
			return TasksRes{Tasks: tasks, Token: tok}, nil
		}
		if err := pollWait(ctx, wake); err != nil {
			return TasksRes{}, err
		}
	}
}

// pollWait blocks until wake fires or ctx finishes — reporting ErrTimeout on
// a deadline expiry and the cancellation cause otherwise. wake is taken
// before the pop that came back empty and the commit observer signals under
// the engine lock, so a row the pop missed has not signalled yet: there is
// no notification to miss and nothing to re-poll for.
func pollWait(ctx context.Context, wake <-chan struct{}) error {
	if err := ctx.Err(); err != nil {
		return ctxErr(ctx)
	}
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctxErr(ctx)
	}
}

// byID orders tasks by id, the order a binary search over them needs.
func byID(a, b Task) int { return cmp.Compare(a.ID, b.ID) }

// tryPopTasks pops the top-n queue entries with three batched statements —
// one DELETE, one UPDATE, one SELECT over the popped id set — instead of
// three statements per task. The transaction runs logged: the pop is a
// mutation of the queues like any other, and its commit token is what lets
// the popping session read its own pop through a follower (read-your-pops).
func (db *DB) tryPopTasks(workType, n int, pool string) ([]Task, Token, error) {
	defer db.met.popTasks.ObserveSince(time.Now())
	var tasks []Task
	tok, err := db.commit(func(tx *minisql.Tx) error {
		tasks = tasks[:0]
		now := nowNano()
		pick := []minisql.Value{minisql.Int64(int64(workType)), minisql.Int64(int64(n))}
		if err := tx.Query(db.stmts[popPick], pick, func(row []minisql.Value) error {
			if tasks == nil {
				tasks = make([]Task, 0, min(n, 16))
			}
			tasks = append(tasks, Task{ID: row[0].AsInt(), WorkType: workType, Pool: pool,
				Priority: int(row[1].AsInt()), Started: time.Unix(0, now)})
			return nil
		}); err != nil || len(tasks) == 0 {
			return err
		}
		// popTasksUpd's arguments end with the popped ids, which are the
		// DELETE's and the SELECT's arguments: one slice for all three.
		upd := append(make([]minisql.Value, 0, 3+len(tasks)),
			minisql.Text(string(StatusRunning)), minisql.Text(pool), minisql.Int64(now))
		for _, t := range tasks {
			upd = append(upd, minisql.Int64(t.ID))
		}
		ids := upd[3:]
		if _, err := tx.Run(db.stmts[popTasksDel], ids...); err != nil {
			return err
		}
		if _, err := tx.Run(db.stmts[popTasksUpd], upd...); err != nil {
			return err
		}
		// The rows come back in table order: each finds its task by binary
		// search over the tasks sorted by id, and the pop order — the pick's
		// ORDER BY priority DESC, task_id ASC — is restored after.
		slices.SortFunc(tasks, byID)
		if err := tx.Query(db.stmts[popTasksSel], ids, func(row []minisql.Value) error {
			if i, ok := slices.BinarySearchFunc(tasks, Task{ID: row[0].AsInt()}, byID); ok {
				t := &tasks[i]
				t.ExpID, t.Payload, t.Created = row[1].AsText(), row[2].AsText(), time.Unix(0, row[3].AsInt())
				t.Status = StatusRunning
			}
			return nil
		}); err != nil {
			return err
		}
		for _, t := range tasks {
			if t.Status != StatusRunning {
				return fmt.Errorf("eqsql: queue references missing task %d", t.ID)
			}
		}
		slices.SortFunc(tasks, func(a, b Task) int { return cmp.Or(cmp.Compare(b.Priority, a.Priority), byID(a, b)) })
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return tasks, tok, nil
}

// Report implements Session. It is a state machine, not an overwrite: only a
// running task completes. Reporting a complete task again is an idempotent
// no-op (a retry after an ambiguous ack); reporting a queued or canceled one
// is an error, because the worker's claim was voided (chaos invariant 6 found
// the double completion that accepting it caused; the cases are below).
func (db *DB) Report(ctx context.Context, taskID int64, workType int, result string) (Res, error) {
	if err := db.open(ctx); err != nil {
		return Res{}, err
	}
	defer db.met.report.ObserveSince(time.Now())
	already := false
	tok, err := db.eng.TxLogged(func(tx *minisql.Tx) error {
		id := minisql.Int64(taskID)
		status, found := "", false
		if err := tx.Query(db.stmts[reportSel], []minisql.Value{id}, func(row []minisql.Value) error {
			status, found = row[0].AsText(), true
			return nil
		}); err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("eqsql: report for unknown task %d", taskID)
		}
		switch Status(status) {
		case StatusComplete:
			// Idempotent retry: the first attempt committed and its ack was
			// lost in flight. Re-applying would log a second complete
			// transition and a duplicate eq_in_q result row, so commit
			// nothing and acknowledge the work that already stands.
			already = true
			return nil
		case StatusRunning:
			// The reporting worker holds the task: the only state a report
			// may complete from.
		default:
			// The worker's claim is void: its pop was rolled back with a
			// deposed leader's history (the task is queued again, still in
			// eq_out_q), the task was requeued out from under it, or it was
			// canceled. Completing it anyway would strand a "complete" row
			// in the outbound queue to be popped — and completed — a second
			// time, breaking terminal-transition exactly-once. The result
			// is discarded; whoever holds the task now reports it.
			return fmt.Errorf("eqsql: report for task %d in state %q (not running)", taskID, status)
		}
		if _, err := tx.Run(db.stmts[reportUpd], minisql.Text(string(StatusComplete)), minisql.Text(result),
			minisql.Int64(nowNano()), id); err != nil {
			return err
		}
		_, err := tx.Run(db.stmts[inQInsert], id, minisql.Int64(int64(workType)))
		return err
	})
	if err != nil {
		return Res{}, err
	}
	if already {
		return Res{Token: db.eng.LastLogged()}, nil
	}
	if err := db.waitDurable(tok); err != nil {
		return Res{}, err
	}
	return Res{Token: tok}, nil
}

// QueryResult implements Session.
func (db *DB) QueryResult(ctx context.Context, taskID int64) (ResultRes, error) {
	res, err := db.PopResults(ctx, []int64{taskID}, 1)
	if err != nil {
		return ResultRes{}, err
	}
	return ResultRes{Result: res.Results[0].Result, Token: res.Token}, nil
}

// PopResults implements Session.
func (db *DB) PopResults(ctx context.Context, ids []int64, max int) (ResultsRes, error) {
	if len(ids) == 0 {
		return ResultsRes{}, fmt.Errorf("eqsql: PopResults requires at least one task id")
	}
	if max <= 0 {
		max = len(ids)
	}
	for {
		if db.closed.Load() {
			return ResultsRes{}, ErrClosed
		}
		if err := ctx.Err(); errors.Is(err, context.Canceled) {
			return ResultsRes{}, err
		}
		wake := db.inN.Wait()
		results, tok, err := db.tryPopResults(ids, max)
		if err != nil {
			return ResultsRes{}, err
		}
		if len(results) > 0 {
			return ResultsRes{Results: results, Token: tok}, nil
		}
		if err := pollWait(ctx, wake); err != nil {
			return ResultsRes{}, err
		}
	}
}

// tryPopResults mirrors tryPopTasks: one DELETE and one SELECT over the
// popped id set, committed through the statement log so the pop carries its
// own token.
func (db *DB) tryPopResults(ids []int64, max int) ([]TaskResult, Token, error) {
	defer db.met.popResults.ObserveSince(time.Now())
	var results []TaskResult
	tok, err := db.commit(func(tx *minisql.Tx) error {
		results = results[:0]
		pick := make([]minisql.Value, len(ids)+1)
		for i, id := range ids {
			pick[i] = minisql.Int64(id)
		}
		pick[len(ids)] = minisql.Int64(int64(max))
		// A read runs on a copy of its arguments, so the popped ids — at most
		// len(ids) of them — overwrite the front of pick as they stream.
		popped := pick[:0]
		if err := tx.Query(db.stmts[popResultsPick], pick, func(row []minisql.Value) error {
			popped = append(popped, row[0])
			return nil
		}); err != nil || len(popped) == 0 {
			return err
		}
		if _, err := tx.Run(db.stmts[popResultsDel], popped...); err != nil {
			return err
		}
		// The pick's ORDER BY task_id ASC leaves results sorted by id: each
		// streamed row finds its entry by binary search.
		results = make([]TaskResult, len(popped))
		for i, v := range popped {
			results[i].ID = v.AsInt()
		}
		found := 0
		if err := tx.Query(db.stmts[popResultsSel], popped, func(row []minisql.Value) error {
			if i, ok := slices.BinarySearchFunc(results, row[0].AsInt(), func(r TaskResult, id int64) int {
				return cmp.Compare(r.ID, id)
			}); ok {
				results[i].Result = row[1].AsText()
				found++
			}
			return nil
		}); err != nil {
			return err
		}
		if found != len(results) {
			return fmt.Errorf("eqsql: input queue references %d missing tasks", len(results)-found)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return results, tok, nil
}

// read runs one read through the engine lock. A transaction that writes
// nothing logs nothing.
func (db *DB) read(h *minisql.Prepared, args []minisql.Value, fn func(row []minisql.Value) error) error {
	_, err := db.eng.TxLogged(func(tx *minisql.Tx) error { return tx.Query(h, args, fn) })
	return err
}

// readByID reads, through h, one value per task of ids: h's rows are
// (task_id, v).
func readByID[V any](db *DB, h *minisql.Prepared, ids []int64, v func(minisql.Value) V) (map[int64]V, error) {
	out := make(map[int64]V, len(ids))
	args := make([]minisql.Value, len(ids))
	for i, id := range ids {
		args[i] = minisql.Int64(id)
	}
	if err := db.read(h, args, func(row []minisql.Value) error {
		out[row[0].AsInt()] = v(row[1])
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Statuses implements Session. In-process reads are always current, so the
// consistency options are accepted and equivalent.
func (db *DB) Statuses(ctx context.Context, ids []int64, opts ...ReadOption) (map[int64]Status, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	return readByID(db, db.stmts[statusesSel], ids, func(v minisql.Value) Status { return Status(v.AsText()) })
}

// Priorities implements Session.
func (db *DB) Priorities(ctx context.Context, ids []int64, opts ...ReadOption) (map[int64]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	return readByID(db, db.stmts[prioritiesSel], ids, func(v minisql.Value) int { return int(v.AsInt()) })
}

// UpdatePriorities implements Session. The whole batch commits atomically, as
// one log entry of at most two set-based statements (Tx.RunRows, argument
// rows (priority, task_id)) — the queue rows, then the task rows of the ids
// that were still queued — which is what makes reprioritization cheap
// relative to per-task updates (§V-B).
func (db *DB) UpdatePriorities(ctx context.Context, ids []int64, priorities []int) (CountRes, error) {
	if err := db.open(ctx); err != nil {
		return CountRes{}, err
	}
	if len(priorities) != 1 && len(priorities) != len(ids) {
		return CountRes{}, fmt.Errorf("eqsql: UpdatePriorities needs 1 or %d priorities, got %d",
			len(ids), len(priorities))
	}
	if len(ids) == 0 {
		return CountRes{Token: db.eng.LastLogged()}, nil
	}
	updated := 0
	tok, err := db.commit(func(tx *minisql.Tx) error {
		queue := make([]minisql.Value, 0, 2*len(ids))
		for i, id := range ids {
			p := priorities[0]
			if len(priorities) > 1 {
				p = priorities[i]
			}
			queue = append(queue, minisql.Int64(int64(p)), minisql.Int64(id))
		}
		hits, err := tx.RunRows(db.stmts[prioOutQUpd], queue)
		if err != nil {
			return err
		}
		tasks := make([]minisql.Value, 0, len(queue))
		for i, n := range hits {
			if n > 0 {
				tasks = append(tasks, queue[2*i], queue[2*i+1])
			}
		}
		if updated = len(tasks) / 2; updated == 0 {
			return nil
		}
		_, err = tx.RunRows(db.stmts[prioTasksUpd], tasks)
		return err
	})
	if err != nil {
		return CountRes{}, err
	}
	return CountRes{Count: updated, Token: tok}, nil
}

// CancelTasks implements Session. Only tasks still in the output queue can be
// canceled; running tasks are owned by a pool (paper §VI: oversubscribed
// tasks become ineligible for cancellation).
func (db *DB) CancelTasks(ctx context.Context, ids []int64) (CountRes, error) {
	if err := db.open(ctx); err != nil {
		return CountRes{}, err
	}
	canceled := 0
	tok, err := db.commit(func(tx *minisql.Tx) error {
		canceled = 0
		for _, id := range ids {
			res, err := tx.Run(db.stmts[cancelDel], minisql.Int64(id))
			if err != nil {
				return err
			}
			if res.RowsAffected > 0 {
				if _, err := tx.Run(db.stmts[cancelUpd], minisql.Text(string(StatusCanceled)),
					minisql.Int64(nowNano()), minisql.Int64(id)); err != nil {
					return err
				}
				canceled++
			}
		}
		return nil
	})
	if err != nil {
		return CountRes{}, err
	}
	return CountRes{Count: canceled, Token: tok}, nil
}

// RequeueRunning implements Session.
func (db *DB) RequeueRunning(ctx context.Context, pool string) (CountRes, error) {
	if err := db.open(ctx); err != nil {
		return CountRes{}, err
	}
	requeued := 0
	tok, err := db.commit(func(tx *minisql.Tx) error {
		// (task_id, work_type, priority) of every task the pool holds, read
		// before the writes that requeue them.
		var held []int64
		if err := tx.Query(db.stmts[requeueSel], []minisql.Value{minisql.Text(pool), minisql.Text(string(StatusRunning))},
			func(row []minisql.Value) error {
				held = append(held, row[0].AsInt(), row[1].AsInt(), row[2].AsInt())
				return nil
			}); err != nil {
			return err
		}
		for i := 0; i < len(held); i += 3 {
			id := minisql.Int64(held[i])
			if _, err := tx.Run(db.stmts[outQInsert], id, minisql.Int64(held[i+1]), minisql.Int64(held[i+2])); err != nil {
				return err
			}
			if _, err := tx.Run(db.stmts[requeueUpd], minisql.Text(string(StatusQueued)), id); err != nil {
				return err
			}
		}
		requeued = len(held) / 3
		return nil
	})
	if err != nil {
		return CountRes{}, err
	}
	return CountRes{Count: requeued, Token: tok}, nil
}

// Counts implements Session. The four counts are read in one engine-lock
// hold — a transaction that writes nothing and so logs nothing — so a task
// changing state between them cannot be counted twice or not at all.
func (db *DB) Counts(ctx context.Context, expID string, opts ...ReadOption) (map[Status]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	out := make(map[Status]int, 4)
	_, err := db.eng.TxLogged(func(tx *minisql.Tx) error {
		for _, s := range []Status{StatusQueued, StatusRunning, StatusComplete, StatusCanceled} {
			h, args := db.stmts[countStatusExp], []minisql.Value{minisql.Text(string(s)), minisql.Text(expID)}
			if expID == "" {
				h, args = db.stmts[countStatus], args[:1]
			}
			n, err := tx.Count(h, args...)
			if err != nil {
				return err
			}
			out[s] = n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Tags implements Session.
func (db *DB) Tags(ctx context.Context, taskID int64, opts ...ReadOption) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	tags := []string{}
	err := db.read(db.stmts[tagsSel], []minisql.Value{minisql.Int64(taskID)}, func(row []minisql.Value) error {
		tags = append(tags, row[0].AsText())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tags, nil
}

// GetTask implements Session: the full task row for inspection, recovery,
// and tests.
func (db *DB) GetTask(ctx context.Context, taskID int64, opts ...ReadOption) (Task, error) {
	if err := ctx.Err(); err != nil {
		return Task{}, ctxErr(ctx)
	}
	t := Task{ID: taskID}
	found := false
	err := db.read(db.stmts[taskSel], []minisql.Value{minisql.Int64(taskID)}, func(r []minisql.Value) error {
		found = true
		t.ExpID, t.WorkType, t.Status = r[0].AsText(), int(r[1].AsInt()), Status(r[2].AsText())
		t.Payload, t.Result, t.Pool, t.Priority = r[3].AsText(), r[4].AsText(), r[5].AsText(), int(r[6].AsInt())
		t.Created, t.Started, t.Stopped = time.Unix(0, r[7].AsInt()), time.Unix(0, r[8].AsInt()), time.Unix(0, r[9].AsInt())
		return nil
	})
	if err != nil {
		return Task{}, err
	}
	if !found {
		return Task{}, fmt.Errorf("eqsql: no task %d", taskID)
	}
	return t, nil
}
