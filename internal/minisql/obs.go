package minisql

import (
	"sync/atomic"
	"time"
)

// PlanCacheStats is a snapshot of the engine's compiled-statement counters,
// exported for the observability layer (osprey_minisql_plan_cache_* metrics).
// Hits counts executions that reused a compiled statement — every run through
// a prepared handle, and every replayed Stmt whose text was compiled already;
// Misses counts those that had to parse. Evictions counts ad-hoc texts
// dropped at the text index's bound, and Size the compiled statements held,
// prepared and ad-hoc.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
}

// PlanCacheStats returns the current compiled-statement counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:      e.plans.hits.Load(),
		Misses:    e.plans.misses.Load(),
		Evictions: e.plans.evictions.Load(),
		Size:      e.plans.len(),
	}
}

// TableRows returns the number of live rows in a table (0 for an unknown
// table). It takes the engine lock, so it is for scrape-time gauges — queue
// depths — not hot paths.
func (e *Engine) TableRows(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[name]
	if !ok {
		return 0
	}
	return t.live
}

// SetSlowQueryLog installs a threshold-gated slow-statement callback: fn is
// invoked for every statement whose execution (excluding parse and lock wait)
// takes at least threshold. A zero threshold or nil fn disables logging, the
// default — disabled, the only hot-path cost is one int64 load under the
// already-held engine lock. fn runs while the engine lock is held and MUST
// NOT call back into the engine; keep it to a log write or counter bump.
func (e *Engine) SetSlowQueryLog(threshold time.Duration, fn func(sql string, d time.Duration)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if threshold <= 0 || fn == nil {
		e.slowNanos, e.slowFn = 0, nil
		return
	}
	e.slowNanos, e.slowFn = int64(threshold), fn
}

// SetSnapshotObserver registers fn to receive, after every SnapshotWith, how
// long the snapshot held the engine lock: the capture, not the encode. It is
// the longest hold the engine takes on its own, so it is the one exported.
func (e *Engine) SetSnapshotObserver(fn func(held time.Duration)) {
	e.mu.Lock()
	e.snapObs = fn
	e.mu.Unlock()
}

// cacheCounters are the planCache's monotonic counters. Kept in a separate
// struct so the cache's documented locking story stays about the maps.
type cacheCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}
