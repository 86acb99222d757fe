//go:build !race

// The race detector's sync.Pool drops a share of puts at random, so the
// allocation pins build without it.

package service

import "testing"

// TestPollCtxAllocatesNothing: the deadline context a polling op runs under
// is pooled; taking one, reading it as core.DB's pollWait does and
// releasing it allocates nothing (context.WithTimeout and its Done channel
// cost five).
func TestPollCtxAllocatesNothing(t *testing.T) {
	req := request{Op: "query_tasks", WaitMS: 1000}
	allocs := testing.AllocsPerRun(100, func() {
		ctx, release := pollCtx(req)
		if ctx.Err() != nil {
			t.Fatal("a fresh poll context is expired")
		}
		select {
		case <-ctx.Done():
			t.Fatal("a fresh poll context is done")
		default:
		}
		release()
	})
	if allocs != 0 {
		t.Fatalf("pollCtx and release: %v allocs, want 0", allocs)
	}
}
