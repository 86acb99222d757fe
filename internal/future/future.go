// Package future implements the OSPREY asynchronous task API (paper §V-B).
//
// A Future encapsulates the asynchronous execution of one submitted task.
// Futures are created by Submit and expose status queries, result retrieval,
// cancellation, and reprioritization without blocking the model-exploration
// algorithm. Collection helpers — AsCompleted, PopCompleted and
// UpdatePriorities — operate on groups of futures and perform batch
// operations against the EMEWS DB rather than iterating task by task,
// which is what enables the paper's fast time-to-solution algorithms.
//
// Futures ride the Session API: every mutating operation a future performs
// (the submit itself, result pops, cancellation, reprioritization) returns a
// commit token, and the future ratchets the highest one it has seen (Token).
// Because the underlying Session ratchets the same tokens internally, any
// read through that Session — from this process or routed to a follower
// replica — already reflects the future's own writes and pops; Token lets a
// caller extend that guarantee to a *different* session by handing the bound
// over explicitly.
package future

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"osprey/internal/core"
	"osprey/internal/wait"
	"osprey/internal/watch"
)

// ErrCanceled is returned when a result is requested from a canceled future.
var ErrCanceled = errors.New("future: task canceled")

// Future is a handle on one submitted task (paper §V-B).
type Future struct {
	sess core.Session
	id   int64

	mu     sync.Mutex
	done   bool
	result string
	tok    core.Token
}

// Submit submits a task through the EMEWS DB Session and returns its Future,
// carrying the submit's commit token.
func Submit(sess core.Session, expID string, workType int, payload string, opts ...core.SubmitOption) (*Future, error) {
	res, err := sess.Submit(context.Background(), expID, workType, payload, opts...)
	if err != nil {
		return nil, err
	}
	return &Future{sess: sess, id: res.ID, tok: res.Token}, nil
}

// Wrap adopts an already-submitted task id as a Future. workType is unused:
// a Future reads its task by id alone, and the parameter stays only until
// the benchmark, its last caller, stops passing it.
func Wrap(sess core.Session, taskID int64, workType int) *Future {
	return &Future{sess: sess, id: taskID}
}

// TaskID returns the unique EMEWS DB task identifier.
func (f *Future) TaskID() int64 { return f.id }

// Token returns the highest commit token any of this future's operations has
// produced — at minimum the submit's own token, ratcheting as results are
// retrieved or the task is canceled or reprioritized. A reader session given
// this token is guaranteed to observe the future's task in its current
// state, even through a follower replica.
func (f *Future) Token() core.Token {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tok
}

// noteToken ratchets the future's token high-water mark.
func (f *Future) noteToken(tok core.Token) {
	f.mu.Lock()
	if tok > f.tok {
		f.tok = tok
	}
	f.mu.Unlock()
}

// Done reports whether the result has already been retrieved locally.
func (f *Future) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Status queries the task's current status without waiting for completion.
// The read runs at session consistency: it always reflects this future's own
// submit and pops.
func (f *Future) Status() (core.Status, error) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return core.StatusComplete, nil
	}
	f.mu.Unlock()
	sts, err := f.sess.Statuses(context.Background(), []int64{f.id})
	if err != nil {
		return "", err
	}
	st, ok := sts[f.id]
	if !ok {
		return "", fmt.Errorf("future: unknown task %d", f.id)
	}
	return st, nil
}

// Result blocks until the task's result is available or timeout elapses
// (core.ErrTimeout). Once retrieved, the result is cached locally: the
// input-queue entry is consumed exactly once.
//
// The wait parks on a per-task event subscription: a terminal transition
// wakes it, and cancellation surfaces as ErrCanceled in the same hop.
// Subscribing from the submit's own commit token replays any transition that
// already happened, so a task that completed before the call still wakes
// immediately. A compacted position opens the stream with a resync marker
// instead: the task's transitions before it are gone, so the task is read
// once (GetTask) — a complete one has its result popped, a canceled one
// returns ErrCanceled, and any other keeps waiting on the same stream. A
// stream that ends mid-wait (overflow, hub reset) is resubscribed from the
// last token it delivered, inside the same deadline; a subscribe or read
// that fails — the session is closed, the connection of a non-failover
// client is gone — returns its error.
func (f *Future) Result(timeout time.Duration) (string, error) {
	f.mu.Lock()
	if f.done {
		r := f.result
		f.mu.Unlock()
		return r, nil
	}
	f.mu.Unlock()
	// Unpooled: a ClusterClient stream's goroutine may still select on ctx
	// after the stream is closed.
	ctx, cancel := wait.Timeout(timeout)
	defer cancel()
	since := f.Token()
	for {
		st, err := f.sess.Watch(ctx, watch.Query{TaskID: f.id, Since: since}, 4)
		if err != nil {
			return "", err
		}
		var status string
		status, since, err = f.awaitTerminal(ctx, st, since)
		st.Close()
		if err != nil {
			return "", err
		}
		switch status {
		case watch.StatusCanceled:
			return "", ErrCanceled
		case watch.StatusComplete:
			// The result row is committed; pop it. The read rides the same
			// ctx — ample for a committed result's round trip.
			res, err := f.sess.QueryResult(ctx, f.id)
			if err != nil {
				return "", err
			}
			f.setResult(res.Result, res.Token)
			return res.Result, nil
		}
		if ctx.Err() != nil {
			return "", core.ErrTimeout
		}
	}
}

// awaitTerminal reads st until the task is known to be complete or canceled
// and returns that status, or "" when the stream ended or ctx finished
// first, with since advanced past the tokens delivered — where a resubscribe
// resumes. At a resync marker the task's status is read instead of waited
// for: a terminal one is returned, any other keeps the stream.
func (f *Future) awaitTerminal(ctx context.Context, st watch.Stream, since core.Token) (string, core.Token, error) {
	for {
		select {
		case batch, ok := <-st.Events():
			if !ok {
				return "", since, nil
			}
			for _, ev := range batch {
				if ev.Token > since {
					since = ev.Token
				}
				status := ev.Status
				if ev.Resync {
					t, err := f.sess.GetTask(ctx, f.id)
					if err != nil {
						return "", since, err
					}
					status = string(t.Status)
				}
				if status == watch.StatusCanceled || status == watch.StatusComplete {
					return status, since, nil
				}
			}
		case <-ctx.Done():
			return "", since, nil
		}
	}
}

func (f *Future) setResult(res string, tok core.Token) {
	f.mu.Lock()
	f.done = true
	f.result = res
	if tok > f.tok {
		f.tok = tok
	}
	f.mu.Unlock()
}

// Cancel removes the task from the output queue if it has not started.
// It reports whether the task was actually canceled.
func (f *Future) Cancel() (bool, error) {
	res, err := f.sess.CancelTasks(context.Background(), []int64{f.id})
	if err != nil {
		return false, err
	}
	f.noteToken(res.Token)
	return res.Count > 0, nil
}

// UpdatePriorities batch-updates the priorities of all still-queued futures
// in fs. priorities must contain either a single value (applied to all) or
// one value per future. It returns how many queue entries changed.
func UpdatePriorities(fs []*Future, priorities []int) (int, error) {
	if len(fs) == 0 {
		return 0, nil
	}
	sess := fs[0].sess
	ids := make([]int64, len(fs))
	for i, f := range fs {
		ids[i] = f.id
	}
	res, err := sess.UpdatePriorities(context.Background(), ids, priorities)
	if err != nil {
		return 0, err
	}
	for _, f := range fs {
		f.noteToken(res.Token)
	}
	return res.Count, nil
}

// PopCompleted blocks until one of the futures in *fs completes, removes it
// from the slice and returns it with its result cached. It mirrors the
// paper's pop_completed. The pop's commit token lands on the returned
// future, so a reader session handed Future.Token observes the post-pop
// state.
func PopCompleted(fs *[]*Future, timeout time.Duration) (*Future, error) {
	if len(*fs) == 0 {
		return nil, errors.New("future: PopCompleted on empty future list")
	}
	sess := (*fs)[0].sess
	byID := make(map[int64]int, len(*fs))
	ids := make([]int64, len(*fs))
	for i, f := range *fs {
		ids[i] = f.id
		byID[f.id] = i
	}
	ctx, release := wait.Deadline(timeout)
	defer release()
	res, err := sess.PopResults(ctx, ids, 1)
	if err != nil {
		return nil, err
	}
	idx := byID[res.Results[0].ID]
	f := (*fs)[idx]
	f.setResult(res.Results[0].Result, res.Token)
	*fs = append((*fs)[:idx], (*fs)[idx+1:]...)
	return f, nil
}

// AsCompleted returns a channel yielding up to n futures from fs as they
// complete (all of them when n <= 0), closing the channel afterwards or when
// ctx is done. Each yielded future has its result cached and carries the
// pop's commit token. It mirrors the paper's as_completed generator.
func AsCompleted(ctx context.Context, fs []*Future, n int) <-chan *Future {
	out := make(chan *Future)
	if n <= 0 || n > len(fs) {
		n = len(fs)
	}
	go func() {
		defer close(out)
		remaining := append([]*Future(nil), fs...)
		byID := make(map[int64]*Future, len(remaining))
		for _, f := range remaining {
			byID[f.id] = f
		}
		ids := make([]int64, 0, len(remaining))
		yielded := 0
		for yielded < n && len(remaining) > 0 {
			if ctx.Err() != nil {
				return
			}
			sess := remaining[0].sess
			ids = ids[:0]
			for _, f := range remaining {
				ids = append(ids, f.id)
			}
			// PopResults long-polls ctx itself, in chunks when it crosses a
			// connection, and returns on its cancellation.
			res, err := sess.PopResults(ctx, ids, n-yielded)
			if err != nil {
				if errors.Is(err, core.ErrTimeout) {
					continue // ctx's deadline: the loop's check returns
				}
				return
			}
			for _, r := range res.Results {
				f := byID[r.ID]
				delete(byID, r.ID)
				f.setResult(r.Result, res.Token)
				select {
				case out <- f:
					yielded++
				case <-ctx.Done():
					return
				}
			}
			rest := remaining[:0]
			for _, f := range remaining {
				if _, ok := byID[f.id]; ok {
					rest = append(rest, f)
				}
			}
			remaining = rest
		}
	}()
	return out
}
