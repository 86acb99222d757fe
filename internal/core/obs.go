package core

import (
	"sync/atomic"
	"time"

	"osprey/internal/minisql"
	"osprey/internal/obs"
)

// dbMetrics is the DB's observability surface: one registry per DB (a
// process may host several databases in tests), per-op latency histograms on
// the non-polling bodies of the hot paths, and scrape-time collectors for
// queue depths and plan-cache counters. Polling waits are deliberately
// excluded from the latency histograms — a 30 s long-poll on an empty queue
// is not a slow pop.
//
// Metrics: osprey_db_op_seconds{op=submit|submit_batch|pop_tasks|
// pop_results|report}, osprey_db_queue_depth{queue=out|in},
// osprey_minisql_plan_cache_{hits,misses,evictions}_total (statement
// executions that reused a compiled statement and those that had to parse:
// core prepares every statement it issues, so only DDL, migrations and
// ad-hoc texts miss and the hit ratio stays near 1),
// osprey_minisql_plan_cache_size, and osprey_engine_snapshot_lock_seconds
// (every node: how long each snapshot — checkpoint, follower bootstrap,
// DB.Snapshot — held the engine lock; read it beside
// osprey_checkpoint_seconds). Durable databases add bindStore's. The
// engine's slow-statement log (Engine.SetSlowQueryLog, `osprey-service
// -slow-query 50ms`) is a log, not a metric.
type dbMetrics struct {
	reg         *obs.Registry
	submit      *obs.Histogram
	submitBatch *obs.Histogram
	popTasks    *obs.Histogram
	popResults  *obs.Histogram
	report      *obs.Histogram

	// The newest checkpoint's duration and the newest snapshot's engine-lock
	// hold, in nanoseconds, for /statusz (histograms keep no last value).
	lastCheckpoint atomic.Int64
	lastSnapLock   atomic.Int64
}

func newDBMetrics(eng *minisql.Engine) *dbMetrics {
	reg := obs.NewRegistry()
	m := &dbMetrics{
		reg:         reg,
		submit:      reg.Histogram("osprey_db_op_seconds", obs.DurationBuckets, "op", "submit"),
		submitBatch: reg.Histogram("osprey_db_op_seconds", obs.DurationBuckets, "op", "submit_batch"),
		popTasks:    reg.Histogram("osprey_db_op_seconds", obs.DurationBuckets, "op", "pop_tasks"),
		popResults:  reg.Histogram("osprey_db_op_seconds", obs.DurationBuckets, "op", "pop_results"),
		report:      reg.Histogram("osprey_db_op_seconds", obs.DurationBuckets, "op", "report"),
	}
	// The longest hold the engine takes on its own lock: a snapshot capturing
	// its consistent cut (a checkpoint, a follower bootstrap, DB.Snapshot).
	snapLock := reg.Histogram("osprey_engine_snapshot_lock_seconds", obs.DurationBuckets)
	eng.SetSnapshotObserver(func(held time.Duration) {
		snapLock.Observe(held.Seconds())
		m.lastSnapLock.Store(int64(held))
	})
	reg.CollectFunc(func(e *obs.Emitter) {
		s := eng.PlanCacheStats()
		e.Counter("osprey_minisql_plan_cache_hits_total", float64(s.Hits))
		e.Counter("osprey_minisql_plan_cache_misses_total", float64(s.Misses))
		e.Counter("osprey_minisql_plan_cache_evictions_total", float64(s.Evictions))
		e.Gauge("osprey_minisql_plan_cache_size", float64(s.Size))
		e.Gauge("osprey_db_queue_depth", float64(eng.TableRows("eq_out_q")), "queue", "out")
		e.Gauge("osprey_db_queue_depth", float64(eng.TableRows("eq_in_q")), "queue", "in")
	})
	return m
}

// bindStore registers the durability metrics of a durable (Open) database:
// the fsync latency histogram osprey_wal_fsync_seconds gets one observation
// per group-commit fsync, osprey_checkpoint_seconds one per checkpoint
// written — snapshot, fsync, publish, log truncation (beside it,
// osprey_engine_snapshot_lock_seconds says how much of that held the engine
// lock) — and the log/checkpoint positions are collected at scrape time:
// osprey_wal_segment_count, osprey_wal_disk_bytes, osprey_wal_fsync_total,
// osprey_checkpoint_written_total, osprey_checkpoint_truncated_entries_total,
// osprey_checkpoint_age_seconds and osprey_checkpoint_index.
func (m *dbMetrics) bindStore(store *minisql.Store) {
	fsyncH := m.reg.Histogram("osprey_wal_fsync_seconds", obs.DurationBuckets)
	store.SetFsyncObserver(func(d time.Duration) { fsyncH.Observe(d.Seconds()) })
	ckptH := m.reg.Histogram("osprey_checkpoint_seconds", obs.DurationBuckets)
	store.SetCheckpointObserver(func(d time.Duration) {
		ckptH.Observe(d.Seconds())
		m.lastCheckpoint.Store(int64(d))
	})
	m.reg.CollectFunc(func(e *obs.Emitter) {
		st := store.Stats()
		e.Gauge("osprey_wal_segment_count", float64(st.Log.Segments))
		e.Gauge("osprey_wal_disk_bytes", float64(st.Log.DiskBytes))
		e.Counter("osprey_wal_fsync_total", float64(st.Log.Fsyncs))
		e.Counter("osprey_checkpoint_written_total", float64(st.Checkpoints))
		e.Counter("osprey_checkpoint_truncated_entries_total", float64(st.Log.Truncated))
		e.Gauge("osprey_checkpoint_age_seconds", st.CheckpointAge.Seconds())
		e.Gauge("osprey_checkpoint_index", float64(st.CheckpointIndex))
	})
}

// Metrics returns the database's metrics registry. Layers above (replica
// node, service server, ops endpoint) register their own metrics here so one
// scrape covers the whole node.
func (db *DB) Metrics() *obs.Registry { return db.met.reg }
