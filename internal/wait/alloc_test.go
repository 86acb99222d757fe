//go:build !race

// The race detector's sync.Pool drops a share of puts at random, so the
// allocation pins build without it.

package wait

import (
	"context"
	"testing"
	"time"
)

// TestWaitsAllocateNothing pins the point of the package: after warm-up a
// pooled timer, a deadline context released before its deadline and a
// backoff step cost no allocation.
func TestWaitsAllocateNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Release(Timer(time.Hour)) }); n != 0 {
		t.Errorf("Timer and Release: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ctx, release := Deadline(time.Hour)
		if ctx.Err() != nil || ctx.Done() == nil {
			t.Fatal("a fresh deadline context is expired")
		}
		release()
	}); n != 0 {
		t.Errorf("Deadline and release: %v allocs, want 0", n)
	}
	var b Backoff
	if n := testing.AllocsPerRun(100, func() {
		b.Reset()
		b.Wait(context.Background())
	}); n != 0 {
		t.Errorf("Backoff step: %v allocs, want 0", n)
	}
}

// TestSignalAllocs: a Wake nobody waits on allocates nothing, and a Wait
// with its Wake allocates only the channel.
func TestSignalAllocs(t *testing.T) {
	var s Signal
	if n := testing.AllocsPerRun(100, s.Wake); n != 0 {
		t.Errorf("Wake with no waiter: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.Wait()
		s.Wake()
	}); n != 1 {
		t.Errorf("Wait and Wake: %v allocs, want 1", n)
	}
}
