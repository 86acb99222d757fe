package wait

import (
	"context"
	"errors"
	"sync"
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

// TestExpireEndsDeadlineEarly: Expire closes Done and turns Err to
// DeadlineExceeded at once; expiring twice, racing the timer, or expiring an
// already expired context closes Done once; an expired context is never
// handed out again.
func TestExpireEndsDeadlineEarly(t *testing.T) {
	ctx, release := Deadline(time.Hour)
	Expire(ctx)
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Expire left Done open")
	}
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Expire = %v, want DeadlineExceeded", err)
	}
	Expire(ctx)
	release()
	for range 1000 {
		next, release := Deadline(time.Hour)
		if next == ctx {
			t.Fatal("an expired context was handed out again")
		}
		release()
	}
	var wg sync.WaitGroup
	for range 100 {
		ctx, release := Deadline(time.Microsecond)
		wg.Add(2)
		for range 2 {
			go func() {
				defer wg.Done()
				Expire(ctx)
			}()
		}
		<-ctx.Done()
		wg.Wait()
		release()
	}
	expired, release := Deadline(0)
	Expire(expired)
	release()
	Expire(nil)
	Expire(context.Background())
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

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestSignalWakesOnlyTakenChannels: a Wake before any Wait is not
// remembered, a channel taken before a Wake is closed by it (once, however
// many Wakes follow), and a Wait after the Wake gets a fresh open channel.
func TestSignalWakesOnlyTakenChannels(t *testing.T) {
	var s Signal
	s.Wake()
	if isClosed(s.Wait()) {
		t.Fatal("a Wake before any Wait was remembered")
	}
	for range 2 {
		ch := s.Wait()
		if !s.Waiting() {
			t.Fatal("Waiting is false with a channel taken")
		}
		s.Wake()
		s.Wake() // no waiter since the first: must not close ch again
		if !isClosed(ch) {
			t.Fatal("Wake left a taken channel open")
		}
		if s.Waiting() {
			t.Fatal("Waiting is true after the Wake")
		}
		next := s.Wait()
		if next == ch || isClosed(next) {
			t.Fatal("a Wait after the Wake did not get a fresh open channel")
		}
		s.Wake()
	}
}

// TestSignalWakesConcurrentWaiters: every goroutine parked on the channel
// it took is released by one Wake.
func TestSignalWakesConcurrentWaiters(t *testing.T) {
	var s Signal
	const n = 4
	parked := make(chan struct{})
	done := make(chan struct{}, n)
	for range n {
		go func() {
			ch := s.Wait()
			parked <- struct{}{}
			<-ch
			done <- struct{}{}
		}()
	}
	for range n {
		<-parked
	}
	s.Wake()
	for range n {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a parked waiter was not released by Wake")
		}
	}
}

// TestForZeroTimeoutChecksOnce: timeout 0 runs ready exactly once and
// reports ErrTimeout without parking.
func TestForZeroTimeoutChecksOnce(t *testing.T) {
	var mu sync.Mutex
	var s Signal
	for _, d := range []time.Duration{0, -time.Second} {
		calls := 0
		mu.Lock()
		err := For(&mu, &s, d, func() (bool, error) { calls++; return false, nil })
		mu.Unlock()
		if err != ErrTimeout || calls != 1 {
			t.Fatalf("For(timeout %v) = %v after %d checks; want ErrTimeout after 1", d, err, calls)
		}
		if s.Waiting() {
			t.Fatalf("For(timeout %v) took a channel it never parked on", d)
		}
	}
}

// TestForReturnsReadyError: ready's error ends the wait as is, on the first
// check and after a wake.
func TestForReturnsReadyError(t *testing.T) {
	var mu sync.Mutex
	var s Signal
	errGone := errors.New("gone")
	mu.Lock()
	err := For(&mu, &s, time.Hour, func() (bool, error) { return false, errGone })
	mu.Unlock()
	if err != errGone {
		t.Fatalf("For = %v, want ready's error", err)
	}

	gone := false
	go func() {
		for !s.Waiting() {
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		gone = true
		mu.Unlock()
		s.Wake()
	}()
	mu.Lock()
	err = For(&mu, &s, time.Hour, func() (bool, error) {
		if gone {
			return false, errGone
		}
		return false, nil
	})
	mu.Unlock()
	if err != errGone {
		t.Fatalf("For after a wake = %v, want ready's error", err)
	}
}

// TestForWakesAndTimesOut: a parked For returns nil once a wake follows the
// change ready waits for, holding l again on return, and ErrTimeout when
// nothing changes within its timeout.
func TestForWakesAndTimesOut(t *testing.T) {
	var mu sync.Mutex
	var s Signal
	ready := false
	go func() {
		for !s.Waiting() {
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		ready = true
		mu.Unlock()
		s.Wake()
	}()
	mu.Lock()
	if err := For(&mu, &s, time.Hour, func() (bool, error) { return ready, nil }); err != nil {
		t.Fatalf("For woken with ready true = %v, want nil", err)
	}
	if mu.TryLock() {
		t.Fatal("For returned without holding l")
	}
	start := time.Now()
	err := For(&mu, &s, 20*time.Millisecond, func() (bool, error) { return false, nil })
	mu.Unlock()
	if err != ErrTimeout || time.Since(start) < 20*time.Millisecond {
		t.Fatalf("For with nothing changing = %v after %v, want ErrTimeout after 20ms", err, time.Since(start))
	}
}

// TestBackoff: the window starts at the base, doubles to the cap and starts
// over after Reset; a step ends as soon as its context is done, and runs
// whole while it is open.
func TestBackoff(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	var b Backoff
	want := backoffBase
	for range 10 {
		if b.Wait(done) {
			t.Fatal("Wait on a done context reported the whole step passed")
		}
		if b.window != want {
			t.Fatalf("window = %v, want %v", b.window, want)
		}
		want = min(2*want, backoffCap)
	}
	b.Reset()
	if !b.Wait(context.Background()) || b.window != backoffBase {
		t.Fatalf("first step after Reset: cut short or window %v; want a whole step of at most %v", b.window, backoffBase)
	}
}
