// Package wait is where a wait gets its wake-up, its timer and its deadline
// context, and a retry its Backoff. A quorum wait, a disk-sync wait, a
// follower read's freshness wait or a long poll parks on a Signal until the
// state it waits for changes, and For is the one loop that checks, parks and
// times out. A wait lasts one call and is over; making a timer or a
// context.WithTimeout for each one allocates several objects per request
// only to drop them, so the pieces here are pooled and a wait in steady state
// allocates nothing but the wake channel its Signal makes for it.
//
// The rule that makes pooling safe: a value taken here must not outlive the
// call it was made for. Release a timer once the wait is over and read
// nothing from it afterwards. Release a Deadline context only after every
// callee it was handed has returned and kept nothing: no goroutine still
// selecting on its Done, no child context still derived from it. A context a
// callee hands on to something that outlives the call (a watch stream's
// goroutine) takes Timeout, which is not pooled. A Deadline context does not
// derive from a caller's context; an owner whose own wait ends first cuts the
// call short with Expire.
package wait

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// timers recycles Timer's timers. go.mod says go 1.24, so timer channels are
// synchronous: once Stop or Reset returns, no stale tick from an earlier use
// can be received.
var timers sync.Pool

// Timer returns a pooled timer that fires after d. Give it back with Release.
func Timer(d time.Duration) *time.Timer {
	if t, ok := timers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// Release stops t and returns it to the pool; t must not be used again.
func Release(t *time.Timer) {
	t.Stop()
	timers.Put(t)
}

// deadlineCtx is Deadline's context: one AfterFunc timer and one done
// channel, both reused for as long as the timer is stopped before it fires.
type deadlineCtx struct {
	deadline time.Time
	done     chan struct{}
	expired  atomic.Bool
	timer    *time.Timer // AfterFunc(expire)
	release  func()      // c.put, bound once so handing it out allocates nothing
}

var deadlines sync.Pool

// closed is the Done channel of every context made already expired.
var closed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Deadline returns a context that behaves like
// context.WithTimeout(context.Background(), d): its Done closes and its Err
// turns to context.DeadlineExceeded when d has passed; d <= 0 gives one that
// has expired already. release must be called once the call the context was
// made for has returned (see the package comment); it returns the context to
// the pool when its deadline has not passed, and an expired context is never
// handed out again.
func Deadline(d time.Duration) (ctx context.Context, release func()) {
	if d <= 0 {
		c := &deadlineCtx{deadline: time.Now().Add(d), done: closed}
		c.expired.Store(true)
		return c, func() {}
	}
	c, _ := deadlines.Get().(*deadlineCtx)
	if c == nil {
		c = &deadlineCtx{done: make(chan struct{})}
		c.release = c.put
	}
	c.deadline = time.Now().Add(d)
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.expire)
	} else {
		c.timer.Reset(d)
	}
	return c, c.release
}

// expire runs on the timer's goroutine: Err reads DeadlineExceeded before
// Done closes, as a context's contract requires.
func (c *deadlineCtx) expire() {
	c.expired.Store(true)
	close(c.done)
}

// Expire ends ctx, a context from Deadline whose release has not been called,
// as if its deadline had passed now; an owner whose own wait ended early uses
// it to cut the call short. It does nothing to an expired context or to one
// Deadline did not return (nil included), and calls racing the deadline or
// each other close Done once: only the one whose Stop caught the timer
// pending expires it.
func Expire(ctx context.Context) {
	if c, ok := ctx.(*deadlineCtx); ok && c.timer != nil && c.timer.Stop() {
		c.expire()
	}
}

// put pools c again only when Stop kept expire from ever running: an expired
// context has a closed done channel and is dropped.
func (c *deadlineCtx) put() {
	if c.timer.Stop() {
		deadlines.Put(c)
	}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *deadlineCtx) Done() <-chan struct{}       { return c.done }
func (c *deadlineCtx) Value(any) any               { return nil }

func (c *deadlineCtx) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// Timeout is context.WithTimeout(context.Background(), d), unpooled: for a
// context that a callee may keep past the call, such as one a watch
// subscription's goroutine selects on.
func Timeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
