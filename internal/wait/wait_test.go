package wait

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The race detector's sync.Pool drops a share of puts at random, so each
// reuse test cycles many times and asks that reuse happened at least once.

// TestDeadlineReleasedBeforeExpiryIsReused: a context released before its
// deadline comes back from the pool with an open Done, a nil Err and the new
// deadline, and still expires like a fresh one.
func TestDeadlineReleasedBeforeExpiryIsReused(t *testing.T) {
	var prev context.Context
	reuses := 0
	for range 1000 {
		ctx, release := Deadline(time.Hour)
		if ctx == prev {
			reuses++
		}
		select {
		case <-ctx.Done():
			t.Fatal("a handed-out context's Done is closed")
		default:
		}
		if err := ctx.Err(); err != nil {
			t.Fatalf("a handed-out context's Err = %v, want nil", err)
		}
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) < 59*time.Minute {
			t.Fatalf("Deadline = %v, %v; want an hour from now", dl, ok)
		}
		prev = ctx
		release()
	}
	if reuses == 0 {
		t.Fatal("a context released before its deadline never came back from the pool")
	}
	ctx, release := Deadline(10 * time.Millisecond)
	<-ctx.Done()
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done = %v, want DeadlineExceeded", err)
	}
	release()
}

// TestDeadlineExpiredNeverReused: a context whose deadline passed is dropped
// on release, so no later Deadline hands out its closed Done.
func TestDeadlineExpiredNeverReused(t *testing.T) {
	expired := make(map[context.Context]bool)
	for range 20 {
		ctx, release := Deadline(time.Millisecond)
		<-ctx.Done()
		release()
		expired[ctx] = true
	}
	for range 1000 {
		ctx, release := Deadline(time.Hour)
		if expired[ctx] {
			t.Fatal("an expired context was handed out again")
		}
		if err := ctx.Err(); err != nil {
			t.Fatalf("a handed-out context's Err = %v, want nil", err)
		}
		release()
	}
}

// TestDeadlineNonPositiveIsExpired: d <= 0 gives a context that has expired
// on return, as context.WithTimeout does.
func TestDeadlineNonPositiveIsExpired(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		ctx, release := Deadline(d)
		select {
		case <-ctx.Done():
		default:
			t.Fatalf("Deadline(%v): Done not closed on return", d)
		}
		if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Deadline(%v): Err = %v, want DeadlineExceeded", d, err)
		}
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > 0 {
			t.Fatalf("Deadline(%v): Deadline = %v, %v; want one in the past", d, dl, ok)
		}
		release()
	}
}

// TestTimerNoStaleTick: a timer that fired unread before its Release,
// reused with a long Reset, delivers no tick from its earlier use.
func TestTimerNoStaleTick(t *testing.T) {
	reuses := 0
	for range 20 {
		fired := Timer(time.Millisecond)
		time.Sleep(2 * time.Millisecond) // fired; nobody read its channel
		Release(fired)
		tm := Timer(time.Hour)
		select {
		case <-tm.C:
			t.Fatal("a reused timer delivered a stale tick")
		default:
		}
		if tm == fired {
			reuses++
		}
		Release(tm)
	}
	if reuses == 0 {
		t.Fatal("a released timer never came back from the pool")
	}
}
