package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/wait"
	"osprey/internal/watch"
)

// Client-side watch subscriptions. A subscription is a request ID held open:
// Watch ships one "watch" frame, the demux routes every later frame carrying
// that ID to the subscription instead of a parked caller, and the stream ends
// when a frame arrives with Done set (or the connection dies). Close sends
// "unwatch" so the server stops pushing.

// ErrWatchOverflow terminates a subscription whose consumer fell behind the
// push stream (client-side mirror of the hub's overflow drop). The events
// already delivered are intact; resubscribing with the last delivered token
// replays what the overflow skipped.
var ErrWatchOverflow = errors.New("service: watch consumer overflowed")

// watchAckTimeout bounds the wait for the server's subscribe acknowledgement.
const watchAckTimeout = 5 * time.Second

// clientSub is one live client-side subscription; it implements watch.Stream.
// Routing state (which frames reach it) lives in Client.subs under Client.mu;
// the fields below are guarded by its own mu because user Close races demux
// delivery.
type clientSub struct {
	c  *Client
	id uint64

	ack    chan error         // buffered 1; resolved by the first frame
	events chan []watch.Event // closed on terminal

	mu     sync.Mutex
	acked  bool
	closed bool  // events closed; no further delivery
	err    error // terminal cause; nil after clean end or user Close
}

func (b *clientSub) Events() <-chan []watch.Event { return b.events }

func (b *clientSub) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Close unsubscribes: the route is dropped immediately (late push frames fall
// into the demux's nobody-waiting path), the stream terminates clean, and the
// server is told to stop pushing with a fire-and-forget unwatch.
func (b *clientSub) Close() error {
	b.c.dropSub(b.id)
	b.finish(nil)
	go b.c.write(context.Background(), time.Second, request{Op: "unwatch", SubID: b.id})
	return nil
}

// finish terminates the stream once; later calls are no-ops (the first cause
// wins, and events is closed exactly once).
func (b *clientSub) finish(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.err = err
	if !b.acked {
		// Subscribe never acknowledged: resolve the waiting Watch call
		// instead of handing it a dead stream.
		b.acked = true
		if err == nil {
			err = errors.New("service: watch ended before acknowledgement")
		}
		b.ack <- err
	}
	close(b.events)
}

// deliver routes one frame into the subscription. Called by the demux with
// Client.mu held — delivery is non-blocking (buffered channel; a full buffer
// terminates the subscription rather than stalling every other caller on the
// connection). Returns false when the subscription is finished and its route
// should be dropped.
func (b *clientSub) deliver(resp *response) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	if !b.acked {
		b.acked = true
		if !resp.OK {
			err := respErr(resp)
			b.closed = true
			b.err = err
			b.ack <- err
			close(b.events)
			b.mu.Unlock()
			return false
		}
		b.ack <- nil
		b.mu.Unlock()
		return true
	}
	if len(resp.Events) > 0 {
		evs := make([]watch.Event, len(resp.Events))
		for i, ev := range resp.Events {
			evs[i] = watch.Event{
				Token: ev.Token, TaskID: ev.TaskID, WorkType: ev.WorkType,
				Status: ev.Status, Depth: ev.Depth, Resync: ev.Resync,
			}
		}
		select {
		case b.events <- evs:
		default:
			b.closed = true
			b.err = ErrWatchOverflow
			close(b.events)
			b.mu.Unlock()
			go b.c.write(context.Background(), time.Second, request{Op: "unwatch", SubID: b.id})
			return false
		}
	}
	if resp.Done {
		var err error
		if !resp.OK {
			err = respErr(resp)
		}
		b.closed = true
		b.err = err
		close(b.events)
		b.mu.Unlock()
		return false
	}
	b.mu.Unlock()
	return true
}

// Watch subscribes to task-state transitions on this connection (wire v4).
// The query selects the shape — one task, one work type (or only its queued
// transitions), or everything — and q.Since resumes after a previously
// delivered commit token: transitions at or before it are not redelivered,
// and a position the server has already compacted away is bridged with
// resync events carrying the current state.
// buf is the stream's batch buffer (<=0: 16); a consumer that falls more than
// buf batches behind is terminated with ErrWatchOverflow rather than allowed
// to stall the connection. The stream ends when the server finishes it
// (unwatch, drain, overflow, snapshot reset — Err reports why), when the
// connection dies, or when the caller Closes it.
func (c *Client) Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.CtxErr(ctx)
	}
	if buf <= 0 {
		buf = 16
	}
	req := request{Op: "watch", Token: q.Since, Trace: obs.TraceID()}
	switch {
	case q.All:
		req.Watch = "all"
	case q.TaskID != 0:
		req.Watch = "task"
		req.TaskID = q.TaskID
	case q.Queued:
		req.Watch = "queued"
		req.WorkType = q.WorkType
	default:
		req.Watch = "type"
		req.WorkType = q.WorkType
	}
	sub := &clientSub{c: c, ack: make(chan error, 1), events: make(chan []watch.Event, buf)}
	c.mu.Lock()
	if c.connErr != nil {
		err := c.connErr
		c.mu.Unlock()
		return nil, fmt.Errorf("service: %w: %w", ErrConn, err)
	}
	c.nextID++
	sub.id = c.nextID
	if c.subs == nil {
		c.subs = make(map[uint64]*clientSub)
	}
	c.subs[sub.id] = sub
	c.mu.Unlock()
	if err := c.send(sub.id, &req); err != nil {
		c.dropSub(sub.id)
		return nil, err
	}
	timer := wait.Timer(watchAckTimeout)
	defer wait.Release(timer)
	select {
	case err := <-sub.ack:
		if err != nil {
			c.dropSub(sub.id)
			return nil, err
		}
		return sub, nil
	case <-ctx.Done():
		sub.Close()
		return nil, core.CtxErr(ctx)
	case <-c.done:
		c.mu.Lock()
		err := c.connErr
		c.mu.Unlock()
		return nil, fmt.Errorf("service: read: %w: %w", ErrConn, err)
	case <-timer.C:
		c.dropSub(sub.id)
		return nil, fmt.Errorf("service: %w: no watch acknowledgement within %v", ErrConn, watchAckTimeout)
	}
}

// dropSub removes a subscription's frame route.
func (c *Client) dropSub(id uint64) {
	c.mu.Lock()
	delete(c.subs, id)
	c.mu.Unlock()
}
