//go:build !race

// The race detector's sync.Pool drops a share of puts at random, so the
// allocation pin builds without it.

package pool

import (
	"context"
	"runtime"
	"testing"
)

// maxAllocsPerTask bounds TestPoolTaskAllocs. A pool that starts a
// goroutine per task and a context.WithTimeout per query read 4.8 here, and
// workers that live as long as the pool with a pooled query deadline ~1.45.
const maxAllocsPerTask = 2.5

// TestPoolTaskAllocs pins what a pool allocates per task over an in-process
// core.DB: its queries, its reports and the database's work for both, and
// nothing per task of its own — no goroutine, closure or timer.
func TestPoolTaskAllocs(t *testing.T) {
	const tasks = 2000
	db := newDB(t)
	submitN(t, db, 1, tasks)
	exec := func(string) (string, error) { return "ok", nil }
	p, _ := New(db, Config{Name: "p", Workers: 4, BatchSize: 16, Threshold: 8, WorkType: 1}, exec, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() { done <- p.Run(ctx) }()
	waitFor(t, func() bool { return p.Executed() == tasks }, "pool did not drain its tasks")
	runtime.ReadMemStats(&after)
	cancel()
	<-done

	perTask := float64(after.Mallocs-before.Mallocs) / tasks
	t.Logf("%.2f allocs per task", perTask)
	if perTask > maxAllocsPerTask {
		t.Fatalf("%.2f allocs per task, want at most %v", perTask, maxAllocsPerTask)
	}
}
