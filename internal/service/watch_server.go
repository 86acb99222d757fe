package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"osprey/internal/watch"
)

// Server-push watch subscriptions (wire v4). A "watch" request does not get a
// single response: its request ID stays open, the server acknowledges the
// subscribe with an OK frame, and every subsequent commit that matches the
// subscription is pushed as a notification frame reusing the same ID —
// the one server-initiated use of the framing. The stream ends with a
// Done frame: clean after "unwatch", transient after an overflow, hub reset,
// or drain (the client resubscribes elsewhere with its last token).

// watchSubBuf is the per-subscription event-batch buffer between the hub and
// the connection pump. A subscriber further behind than this many commits is
// dropped by the hub (ErrOverflow) rather than allowed to stall commits.
const watchSubBuf = 64

// watchCatchUp bounds how long a subscribe with a resume position ahead of
// this node's hub waits for replication to catch up before subscribing
// anyway. A client failing over from a fresher node routinely lands here; the
// lag resolves within the wait. A position that never arrives belongs to a
// token domain this node rolled back (snapshot re-bootstrap after
// divergence), and the subscribe then falls through to the hub's resync path.
const watchCatchUp = 2 * time.Second

// srvSub is one live server-side subscription: the hub stream, the
// connection+ID frames are pushed on, and the cancel that tears it down.
type srvSub struct {
	v      *v2conn
	id     uint64
	st     watch.Stream
	cancel context.CancelFunc
	trace  string
	// drained marks a subscription the server is terminating because it is
	// draining: the terminal frame goes out Transient so the client
	// resubscribes elsewhere instead of treating the end as clean.
	drained atomic.Bool
}

// watchQuery maps the wire request to a hub query. The request's Token rides
// along as the resume position.
func watchQuery(req *request) (watch.Query, error) {
	q := watch.Query{Since: req.Token}
	switch req.Watch {
	case "task":
		if req.TaskID == 0 {
			return q, errors.New("service: watch kind \"task\" requires task_id")
		}
		q.TaskID = req.TaskID
	case "type":
		q.WorkType = req.WorkType
	case "queued":
		q.WorkType = req.WorkType
		q.Queued = true
	case "all":
		q.All = true
	default:
		return q, fmt.Errorf("service: unknown watch kind %q", req.Watch)
	}
	return q, nil
}

// startWatch serves one "watch" request: subscribe, acknowledge on the
// request's ID, then hand the stream to a pump goroutine that pushes every
// matching commit as a frame on that same ID. Runs on the read loop — all
// paths return quickly; when the resume position is ahead of this node's hub
// the subscribe (which must first wait out replication lag) moves to its own
// goroutine.
func (v *v2conn) startWatch(id uint64, req *request, op *opEntry) {
	s := v.s
	t0 := time.Now()
	fail := func(resp response) {
		resp.Done = true
		v.writeResp(id, &resp, "watch", req.Trace)
		op.observe(time.Since(t0), false)
	}
	if s.draining.Load() {
		fail(response{Error: "service: draining", Transient: true})
		return
	}
	if s.node != nil && !s.node.Attached() {
		// A follower that has never attached holds a placeholder database:
		// its first join answer may install a snapshot, which resets the hub
		// under any subscriber accepted now. Refuse transiently — the state
		// worth watching is one join round trip away (ClusterClient retries
		// elsewhere; a plain Client surfaces ErrUnavailable).
		fail(response{Error: "service: follower has not attached to the cluster yet", Transient: true})
		return
	}
	q, err := watchQuery(req)
	if err != nil {
		fail(response{Error: err.Error()})
		return
	}
	if q.Since > s.db.WatchHub().Last() {
		go v.finishWatch(id, req, op, q, t0)
		return
	}
	v.finishWatch(id, req, op, q, t0)
}

// finishWatch completes the subscribe begun by startWatch. A resume position
// ahead of the hub first waits (bounded by watchCatchUp) for this node to
// apply up to it, so a failover from a fresher node resumes live instead of
// resyncing; only a position that never arrives — a rolled-back token
// domain — falls through to the resync path.
func (v *v2conn) finishWatch(id uint64, req *request, op *opEntry, q watch.Query, t0 time.Time) {
	s, db := v.s, v.s.db
	fail := func(resp response) {
		resp.Done = true
		v.writeResp(id, &resp, "watch", req.Trace)
		op.observe(time.Since(t0), false)
	}
	if hub := db.WatchHub(); q.Since > hub.Last() {
		deadline := time.Now().Add(watchCatchUp)
		for q.Since > hub.Last() && time.Now().Before(deadline) && !s.draining.Load() {
			time.Sleep(5 * time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	st, err := db.Watch(ctx, q, watchSubBuf)
	if err != nil {
		cancel()
		fail(errResponse(err))
		return
	}
	sub := &srvSub{v: v, id: id, st: st, cancel: cancel, trace: req.Trace}
	if !v.addSub(sub) {
		// The connection is already tearing down.
		cancel()
		st.Close()
		return
	}
	s.addWatcher(sub)
	if s.draining.Load() {
		// Drain flipped between the check above and registration; terminate
		// now so the drain's sweep cannot have missed this subscription.
		cancel()
	}
	v.writeResp(id, &response{OK: true, Token: db.Token()}, "watch", req.Trace)
	op.observe(time.Since(t0), true)
	go sub.pump()
}

// pump forwards hub batches as push frames until the stream ends, then sends
// the terminal Done frame: clean when the stream was closed deliberately
// (unwatch, connection teardown, drain), transient when the hub dropped the
// subscription (overflow, snapshot reset) so the client resubscribes with its
// last token.
func (b *srvSub) pump() {
	for batch := range b.st.Events() {
		evs := make([]wireEvent, len(batch))
		for i, ev := range batch {
			evs[i] = wireEvent{
				Token: ev.Token, TaskID: ev.TaskID, WorkType: ev.WorkType,
				Status: ev.Status, Depth: ev.Depth, Resync: ev.Resync,
			}
		}
		resp := response{OK: true, Token: batch[len(batch)-1].Token, Events: evs}
		b.v.writeResp(b.id, &resp, "watch", b.trace)
	}
	final := response{OK: true, Done: true}
	if err := b.st.Err(); err != nil {
		final = response{Error: "service: watch terminated: " + err.Error(), Transient: true, Done: true}
	} else if b.drained.Load() {
		final = response{Error: "service: draining", Transient: true, Done: true}
	}
	b.v.writeResp(b.id, &final, "watch", b.trace)
	b.v.removeSub(b.id)
	b.v.s.removeWatcher(b)
}

// serveUnwatch tears down the subscription named by SubID. Idempotent: a
// subscription that already ended acknowledges OK all the same (the client's
// teardown raced the terminal frame, which is normal).
func (v *v2conn) serveUnwatch(id uint64, req *request, op *opEntry) {
	t0 := time.Now()
	v.subMu.Lock()
	sub := v.subs[req.SubID]
	v.subMu.Unlock()
	if sub != nil {
		sub.cancel()
	}
	v.writeResp(id, &response{OK: true, Done: true}, "unwatch", req.Trace)
	op.observe(time.Since(t0), true)
}

// addSub registers a subscription under its request ID; false when the
// connection is already tearing down.
func (v *v2conn) addSub(sub *srvSub) bool {
	v.subMu.Lock()
	defer v.subMu.Unlock()
	if v.subsClosed {
		return false
	}
	if v.subs == nil {
		v.subs = make(map[uint64]*srvSub)
	}
	v.subs[sub.id] = sub
	return true
}

func (v *v2conn) removeSub(id uint64) {
	v.subMu.Lock()
	delete(v.subs, id)
	v.subMu.Unlock()
}

// closeSubs cancels every subscription on a dying connection. The pumps drain
// their streams, attempt the terminal frame (harmless on a dead conn), and
// unregister themselves.
func (v *v2conn) closeSubs() {
	v.subMu.Lock()
	v.subsClosed = true
	subs := make([]*srvSub, 0, len(v.subs))
	for _, sub := range v.subs {
		subs = append(subs, sub)
	}
	v.subMu.Unlock()
	for _, sub := range subs {
		sub.cancel()
	}
}

// addWatcher/removeWatcher/terminateWatches maintain the server-wide view of
// open subscriptions so Drain can end every push stream proactively — a
// parked subscriber learns the node is going away now, not when the TCP
// connection dies.
func (s *Server) addWatcher(sub *srvSub) {
	s.watchMu.Lock()
	if s.watchers == nil {
		s.watchers = make(map[*srvSub]struct{})
	}
	s.watchers[sub] = struct{}{}
	s.watchMu.Unlock()
}

func (s *Server) removeWatcher(sub *srvSub) {
	s.watchMu.Lock()
	delete(s.watchers, sub)
	s.watchMu.Unlock()
}

func (s *Server) terminateWatches() {
	s.watchMu.Lock()
	subs := make([]*srvSub, 0, len(s.watchers))
	for sub := range s.watchers {
		subs = append(subs, sub)
	}
	s.watchMu.Unlock()
	for _, sub := range subs {
		sub.drained.Store(true)
		sub.cancel()
	}
}

// watcherCount reports the open subscriptions still registered; Drain waits
// for it to reach zero so the terminal frames flush before connections close.
func (s *Server) watcherCount() int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return len(s.watchers)
}
