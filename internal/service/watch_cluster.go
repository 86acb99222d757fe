package service

import (
	"context"
	"errors"
	"sync"

	"osprey/internal/core"
	"osprey/internal/wait"
	"osprey/internal/watch"
)

// Failover-aware watch: ClusterClient.Watch returns a stream that survives
// node loss. The underlying subscription lands on a follower replica when one
// is known (followers push their own applied transitions, so the watch load
// spreads off the leader like reads do), and whenever the subscription dies —
// connection loss, drain, hub overflow, leader failover — the stream
// transparently resubscribes elsewhere with the last delivered commit token
// as the resume position. The hub replays what was missed (or opens with a
// resync marker when compacted), and a client-side token filter drops
// anything redelivered across the seam, so the consumer observes every
// transition exactly once, in order, across failover.

// clusterStream is the resubscribing stream handed to ClusterClient.Watch
// callers; it implements watch.Stream.
type clusterStream struct {
	cc  *ClusterClient
	q   watch.Query
	buf int

	out    chan []watch.Event
	ctx    context.Context // the caller's, ended also by Close
	cancel context.CancelFunc
	exited sync.WaitGroup // done once run has returned

	last uint64 // highest non-resync token delivered (run goroutine only)

	mu  sync.Mutex
	err error
}

func (s *clusterStream) Events() <-chan []watch.Event { return s.out }

func (s *clusterStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *clusterStream) Close() error {
	s.cancel()
	return nil
}

func (s *clusterStream) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Watch subscribes to task-state transitions across the cluster. Unlike the
// single-connection Client.Watch, the returned stream does not end on node
// loss: it resubscribes (follower-first, leader as last resort) with its last
// delivered token and continues, so the only terminal conditions are the
// caller closing it or the ClusterClient, ctx ending, or the cluster
// refusing the query itself (reported synchronously or via Err after the
// stream closes).
func (cc *ClusterClient) Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.CtxErr(ctx)
	}
	if buf <= 0 {
		buf = 16
	}
	// First subscribe runs synchronously so a query the cluster refuses fails
	// the call instead of a stream that dies on first read.
	st, err := cc.subscribeWatch(q, buf)
	if err != nil && !retryable(err) && !errors.Is(err, ErrOverloaded) {
		return nil, err
	}
	s := &clusterStream{cc: cc, q: q, buf: buf, last: q.Since, out: make(chan []watch.Event, 1)}
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.exited.Add(1)
	cc.mu.Lock()
	if cc.streams == nil {
		cc.streams = make(map[*clusterStream]struct{})
	}
	cc.streams[s] = struct{}{}
	cc.mu.Unlock()
	go s.run(st, err)
	return s, nil
}

// subscribeWatch opens one server-side subscription: follower replicas in
// rotation first (tryFollowers, as reads do), the leader connection last. A
// non-retryable error (the query itself was refused) aborts the scan
// immediately.
func (cc *ClusterClient) subscribeWatch(q watch.Query, buf int) (st watch.Stream, err error) {
	subscribe := func(c *Client) (err error) {
		st, err = c.Watch(context.Background(), q, buf)
		return err
	}
	done, followerErr := cc.tryFollowers(subscribe)
	if done {
		return st, followerErr
	}
	c, err := cc.connect()
	if err != nil {
		if followerErr != nil {
			return nil, followerErr
		}
		return nil, err
	}
	if err := subscribe(c); err != nil {
		if errors.Is(err, ErrConn) {
			cc.settle(c, err)
		}
		return nil, err
	}
	return st, nil
}

// run owns the subscription lifecycle: forward the live stream, and when it
// ends resubscribe from the last delivered token after a wait.Backoff step.
// st/err carry the synchronous first attempt.
func (s *clusterStream) run(st watch.Stream, err error) {
	defer func() {
		s.cancel()
		s.cc.mu.Lock()
		delete(s.cc.streams, s)
		s.cc.mu.Unlock()
		close(s.out)
		s.exited.Done()
	}()
	var b wait.Backoff
	for {
		if st == nil {
			if s.ctx.Err() != nil {
				return
			}
			if err != nil && !retryable(err) && !errors.Is(err, ErrOverloaded) && !errors.Is(err, watch.ErrOverflow) {
				// The cluster answered and refused (not a node being down):
				// resubscribing elsewhere cannot help.
				s.fail(err)
				return
			}
			if !b.Wait(s.ctx) {
				return
			}
			q := s.q
			q.Since = s.last
			st, err = s.cc.subscribeWatch(q, s.buf)
			continue
		}
		b.Reset()
		err = s.forward(st)
		st = nil
	}
}

// forward relays one live subscription into the consumer channel, filtering
// out transitions already delivered before a resubscribe seam (a resync
// marker always passes: it re-bases the position). Returns the stream's
// terminal error once it ends, nil when stopped locally.
func (s *clusterStream) forward(st watch.Stream) error {
	defer st.Close()
	for {
		select {
		case batch, ok := <-st.Events():
			if !ok {
				return st.Err()
			}
			// Dedup against the position BEFORE this batch: a commit's
			// events share one token, so ratcheting s.last mid-batch would
			// drop every event of the commit after the first.
			prev := s.last
			// Filter in place: st is always a remote stream (Client.Watch),
			// whose batch is the slice the decoder made for one frame, and
			// nothing but this loop holds it.
			evs := batch[:0]
			for _, ev := range batch {
				if ev.Resync {
					// A resync seam re-bases the stream position to the
					// hub's token — downward included: after a snapshot
					// rollback the old position names a token domain that
					// no longer exists, and keeping it would drop every
					// recommitted transition at or below it.
					evs = append(evs, ev)
					s.last = ev.Token
					continue
				}
				if ev.Token <= prev {
					continue
				}
				evs = append(evs, ev)
				if ev.Token > s.last {
					s.last = ev.Token
				}
			}
			if len(evs) == 0 {
				continue
			}
			s.cc.noteToken(s.last)
			select {
			case s.out <- evs:
			case <-s.ctx.Done():
				return nil
			}
		case <-s.ctx.Done():
			return nil
		}
	}
}
