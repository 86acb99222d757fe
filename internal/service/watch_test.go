package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/future"
	"osprey/internal/obs"
	"osprey/internal/pool"
	"osprey/internal/replica"
	"osprey/internal/watch"
)

// collectN drains a watch stream until n events arrive or the deadline hits.
func collectN(t *testing.T, st watch.Stream, n int, within time.Duration) []watch.Event {
	t.Helper()
	var out []watch.Event
	deadline := time.After(within)
	for len(out) < n {
		select {
		case batch, ok := <-st.Events():
			if !ok {
				t.Fatalf("stream ended early (%v) after %d/%d events", st.Err(), len(out), n)
			}
			out = append(out, batch...)
		case <-deadline:
			t.Fatalf("timed out with %d/%d events", len(out), n)
		}
	}
	return out
}

// TestWatchRoundTrip subscribes over the wire against a standalone server and
// walks one task through its lifecycle: the push frames must deliver the
// queued/running/complete transitions in token order on a single connection,
// interleaved with normal request traffic.
func TestWatchRoundTrip(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	st, err := c.Watch(ctx, watch.Query{All: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res, err := c.Submit(ctx, "w", 1, "payload")
	if err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithTimeout(ctx, time.Second)
	if _, err := c.QueryTasks(qctx, 1, 1, "p0"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := c.Report(ctx, res.ID, 1, "done"); err != nil {
		t.Fatal(err)
	}

	evs := collectN(t, st, 3, 2*time.Second)
	want := []string{watch.StatusQueued, watch.StatusRunning, watch.StatusComplete}
	var lastTok uint64
	for i := range want {
		if evs[i].TaskID != res.ID || evs[i].Status != want[i] {
			t.Fatalf("event %d = %+v, want %s for task %d", i, evs[i], want[i], res.ID)
		}
		if evs[i].Token <= lastTok {
			t.Fatalf("tokens not increasing at %d: %+v", i, evs)
		}
		lastTok = evs[i].Token
	}

	// Close tears the subscription down server-side; the watchers registry
	// must empty out (the pump unregisters after the terminal frame).
	st.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.watchMu.Lock()
		n := len(srv.watchers)
		srv.watchMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still tracks %d watchers after close", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchQueuedKindOverWire: a Queued type query travels as the "queued"
// kind and its stream carries only the type's queued transitions, while a
// TestWatchClientOverflow: a Client stream whose reader stops is ended when
// its buffer fills with the hub's own sentinel, watch.ErrOverflow (which
// osprey.ErrWatchOverflow re-exports), not an error of the service's own, and
// the batch it holds stays readable.
func TestWatchClientOverflow(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Watch(context.Background(), watch.Query{All: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := range 3 { // one commit, one push frame each
		if _, err := c.Submit(context.Background(), "w", 1, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing reads until the stream has ended: the second frame finds the
	// buffer full.
	for deadline := time.Now().Add(5 * time.Second); st.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a stream with buf 1 and a stopped reader was not ended")
		}
	}
	if !errors.Is(st.Err(), watch.ErrOverflow) {
		t.Fatalf("overflowed stream ended with %v, want watch.ErrOverflow", st.Err())
	}
	batches := 0
	for range st.Events() {
		batches++
	}
	if batches != 1 {
		t.Fatalf("read %d batches after the overflow, want the 1 the buffer held", batches)
	}
}

// "type" stream on the same connection carries queued, running and complete.
func TestWatchQueuedKindOverWire(t *testing.T) {
	q, err := watchQuery(&request{Watch: "queued", WorkType: 1, Token: 7})
	if err != nil || q != (watch.Query{WorkType: 1, Queued: true, Since: 7}) {
		t.Fatalf("watchQuery(queued) = %+v, %v", q, err)
	}
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	queued, err := c.Watch(ctx, watch.Query{WorkType: 1, Queued: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	byType, err := c.Watch(ctx, watch.Query{WorkType: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer byType.Close()

	a, err := c.Submit(ctx, "w", 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithTimeout(ctx, time.Second)
	if _, err := c.QueryTasks(qctx, 1, 1, "p0"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := c.Report(ctx, a.ID, 1, "done"); err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, "w", 1, "b")
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, evs []watch.Event, want []watch.Event) {
		t.Helper()
		if len(evs) != len(want) {
			t.Fatalf("%s stream got %+v, want %d events", name, evs, len(want))
		}
		for i, w := range want {
			if evs[i].TaskID != w.TaskID || evs[i].Status != w.Status {
				t.Fatalf("%s stream event %d = %+v, want task %d %s", name, i, evs[i], w.TaskID, w.Status)
			}
		}
	}
	check("type", collectN(t, byType, 4, 2*time.Second), []watch.Event{
		{TaskID: a.ID, Status: watch.StatusQueued},
		{TaskID: a.ID, Status: watch.StatusRunning},
		{TaskID: a.ID, Status: watch.StatusComplete},
		{TaskID: b.ID, Status: watch.StatusQueued},
	})
	check("queued", collectN(t, queued, 2, 2*time.Second), []watch.Event{
		{TaskID: a.ID, Status: watch.StatusQueued},
		{TaskID: b.ID, Status: watch.StatusQueued},
	})
}

// TestWatchResumeOverWire asserts the exactly-once reconnect contract across
// connections: a second client resuming with the first stream's last token
// receives precisely the transitions committed in between.
func TestWatchResumeOverWire(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	st, err := c.Watch(ctx, watch.Query{All: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Submit(ctx, "w", 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	evs := collectN(t, st, 1, 2*time.Second)
	last := evs[len(evs)-1].Token
	st.Close()

	b, err := c.Submit(ctx, "w", 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelTasks(ctx, []int64{a.ID}); err != nil {
		t.Fatal(err)
	}

	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Watch(ctx, watch.Query{All: true, Since: last}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	missed := collectN(t, st2, 2, 2*time.Second)
	if missed[0].TaskID != b.ID || missed[0].Status != watch.StatusQueued {
		t.Fatalf("missed[0] = %+v, want queued for %d", missed[0], b.ID)
	}
	if missed[1].TaskID != a.ID || missed[1].Status != watch.StatusCanceled {
		t.Fatalf("missed[1] = %+v, want canceled for %d", missed[1], a.ID)
	}
	for _, ev := range missed {
		if ev.Token <= last {
			t.Fatalf("duplicate: token %d <= resume point %d", ev.Token, last)
		}
	}
}

// TestWatchDrainTerminatesStreams: Drain must proactively end push streams
// with a transient terminal frame so subscribers fail over immediately.
func TestWatchDrainTerminatesStreams(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Watch(context.Background(), watch.Query{All: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	go srv.Drain(time.Second)

	select {
	case _, ok := <-st.Events():
		if ok {
			// Allow a buffered batch; the close must follow.
			if _, ok := <-st.Events(); ok {
				t.Fatalf("stream still delivering after drain")
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("stream not terminated by drain")
	}
	if err := st.Err(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Err = %v, want transient (ErrUnavailable) termination", err)
	}
}

// TestWatchFailoverResume is the resumability acceptance test: a subscriber
// watching through a follower keeps its exactly-once guarantee across leader
// death — the explicit token resume replays exactly the missed transitions.
func TestWatchFailoverResume(t *testing.T) {
	n1, srv1 := startClusterNode(t, "n1", 3, "")
	n2, srv2 := startClusterNode(t, "n2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "n3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ctx := context.Background()

	// A formed cluster is the precondition, as in every failover test: both
	// followers attached — a follower refuses watch subscriptions before that
	// (TestWatchRefusedBeforeFirstAttach), and the plain Client below does
	// not retry — and both holding the full membership view, so the survivors
	// can find a majority once n1 dies.
	waitCond(t, "cluster formed", func() bool {
		return n2.Attached() && n3.Attached() && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	// Subscribe on a follower directly: followers push their own applied
	// transitions, so the stream works without touching the leader.
	fc, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	st, err := fc.Watch(ctx, watch.Query{All: true}, 64)
	if err != nil {
		t.Fatal(err)
	}

	const before = 5
	ids := make(map[int64]bool)
	for i := 0; i < before; i++ {
		res, err := cc.Submit(ctx, "wf", 1, fmt.Sprint(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[res.ID] = true
	}
	evs := collectN(t, st, before, 5*time.Second)
	last := evs[len(evs)-1].Token
	st.Close()

	// Kill the leader; the cluster client rides out the election.
	srv1.Close()
	n1.Close()

	const after = 5
	for i := 0; i < after; i++ {
		res, err := cc.Submit(ctx, "wf", 1, fmt.Sprint(before+i))
		if err != nil {
			t.Fatalf("submit after failover %d: %v", i, err)
		}
		ids[res.ID] = true
	}

	// Resume with the pre-failover token on whichever survivor now leads
	// (n2 by priority, n3 when it won the claim race): a promotion leaves the
	// node's hub and its ring in place, so exactly the post-failover
	// submissions must replay — no loss, no duplicates. The other survivor
	// re-bootstraps from the new leader's snapshot, which resets its hub; a
	// resume there is answered with a resync, not a replay.
	waitCond(t, "a survivor to lead", func() bool { return n2.IsLeader() || n3.IsLeader() })
	lead := srv2
	if n3.IsLeader() {
		lead = srv3
	}
	lc, err := Dial(lead.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	st2, err := lc.Watch(ctx, watch.Query{All: true, Since: last}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	missed := collectN(t, st2, after, 10*time.Second)
	seen := make(map[int64]int)
	for _, ev := range missed {
		if ev.Token <= last {
			t.Fatalf("replayed token %d <= resume point %d (duplicate)", ev.Token, last)
		}
		if ev.Status != watch.StatusQueued || !ids[ev.TaskID] {
			t.Fatalf("unexpected event %+v", ev)
		}
		seen[ev.TaskID]++
	}
	if len(seen) != after {
		t.Fatalf("resumed stream saw %d distinct tasks, want %d", len(seen), after)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d delivered %d times, want exactly once", id, n)
		}
	}
}

// TestWatchRefusedBeforeFirstAttach: a follower that has never attached holds
// a placeholder database whose hub the bootstrap snapshot install will reset,
// so it must refuse a subscription (transiently, with a terminal frame that
// leaves the connection usable) rather than accept one it is about to kill;
// once attached it serves its hub, and keeps serving it after the leader dies.
func TestWatchRefusedBeforeFirstAttach(t *testing.T) {
	// Reserve a replication address with nothing behind it yet: the follower
	// knocks on it and cannot attach.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leaderAddr := ln.Addr().String()
	ln.Close()

	n2, srv2 := startClusterNode(t, "n2", 1, leaderAddr)
	defer func() { srv2.Close(); n2.Close() }()
	if n2.Attached() {
		t.Fatal("a follower with no leader to join reports itself attached")
	}
	fc, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	ctx := context.Background()
	if _, err := fc.Watch(ctx, watch.Query{All: true}, 4); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Watch before first attach = %v, want ErrUnavailable", err)
	}
	if err := fc.Ping(); err != nil {
		t.Fatalf("Ping after the refused watch: %v", err)
	}

	// The leader comes up on the reserved address; the follower bootstraps.
	n1, err := replica.New(replica.Config{
		ID: "n1", Priority: 2, Addr: leaderAddr,
		Heartbeat: beat, ElectionTimeout: elect, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := ServeNode(n1, "127.0.0.1:0")
	if err != nil {
		n1.Close()
		t.Fatal(err)
	}
	waitCond(t, "n2's first attach", n2.Attached)
	st, err := fc.Watch(ctx, watch.Query{All: true}, 4)
	if err != nil {
		t.Fatalf("Watch on the attached follower: %v", err)
	}
	st.Close()

	// A follower that lost its leader is mid-election, not unattached.
	srv1.Close()
	n1.Close()
	waitCond(t, "n2 to notice the leader is gone", func() bool {
		ok, _ := n2.Ready()
		return !ok
	})
	st, err = fc.Watch(ctx, watch.Query{All: true}, 4)
	if err != nil {
		t.Fatalf("Watch on an attached follower with no leader: %v", err)
	}
	st.Close()
}

// TestWatchClusterStreamResubscribe pins the subscription to the leader
// (the client dials no follower) and kills it: the failover-aware stream must
// transparently resubscribe elsewhere and deliver every transition exactly
// once across the seam.
func TestWatchClusterStreamResubscribe(t *testing.T) {
	n1, srv1 := startClusterNode(t, "n1", 3, "")
	n2, srv2 := startClusterNode(t, "n2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "n3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	// Only the leader is dialed, so the subscription lands on the leader.
	nodes := map[string]*replica.Node{srv1.Addr(): n1, srv2.Addr(): n2, srv3.Addr(): n3}
	cc.Dialer = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		if !nodes[addr].IsLeader() {
			return nil, errors.New("not the leader")
		}
		return net.DialTimeout(network, addr, timeout)
	}

	// A formed cluster is the precondition, as in TestWatchFailoverResume: a
	// node that never attached keeps knocking on its join address and takes
	// no part in an election, and a survivor still missing the other from
	// its view finds it only through the claim it grants, a few election
	// rounds later — by which time the transitions it missed sit behind the
	// resync seam of its re-bootstrap, not in this stream.
	waitCond(t, "cluster formed", func() bool {
		return n2.Attached() && n3.Attached() && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	ctx := context.Background()
	st, err := cc.Watch(ctx, watch.Query{All: true}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ids := make(map[int64]bool)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			res, err := cc.Submit(ctx, "wcr", 1, fmt.Sprint(len(ids)))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			ids[res.ID] = true
		}
	}
	submit(5)
	evs := collectN(t, st, 5, 5*time.Second)

	// Replication here is asynchronous: a survivor promoted short of entries
	// the dead leader acknowledged would reissue their tokens, and the
	// stream's duplicate filter would rightly drop what carries them.
	waitCond(t, "followers caught up", func() bool {
		return n2.Applied() == n1.Applied() && n3.Applied() == n1.Applied()
	})
	srv1.Close()
	n1.Close()

	submit(5)
	evs = append(evs, collectN(t, st, 5, 15*time.Second)...)

	seen := make(map[int64]int)
	var lastTok uint64
	for _, ev := range evs {
		if ev.Resync {
			continue
		}
		if ev.Token <= lastTok {
			t.Fatalf("tokens not strictly increasing across failover: %d after %d", ev.Token, lastTok)
		}
		lastTok = ev.Token
		seen[ev.TaskID]++
	}
	for id := range ids {
		if seen[id] != 1 {
			t.Fatalf("task %d delivered %d times, want exactly once", id, seen[id])
		}
	}
}

// TestWatchClusterBatchCommit pins the failover stream's duplicate filter on
// multi-event commits: a batch submit and a batch cancel each produce ONE
// commit whose events all share a token, and every event must pass the filter
// — a filter that ratchets its position mid-batch keeps only the first event
// of each commit and silently drops the rest.
func TestWatchClusterBatchCommit(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cc, err := DialCluster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ctx := context.Background()
	st, err := cc.Watch(ctx, watch.Query{All: true}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const n = 8
	payloads := make([]string, n)
	for i := range payloads {
		payloads[i] = fmt.Sprint(i)
	}
	batch, err := cc.SubmitBatch(ctx, "wbc", 1, payloads, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.IDs) != n {
		t.Fatalf("submitted %d tasks, want %d", len(batch.IDs), n)
	}
	canceled, err := cc.CancelTasks(ctx, batch.IDs)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Count != n {
		t.Fatalf("canceled %d tasks, want %d", canceled.Count, n)
	}

	evs := collectN(t, st, 2*n, 5*time.Second)
	queued := make(map[int64]int)
	gone := make(map[int64]int)
	for _, ev := range evs {
		switch ev.Status {
		case watch.StatusQueued:
			queued[ev.TaskID]++
		case watch.StatusCanceled:
			gone[ev.TaskID]++
		}
	}
	for _, id := range batch.IDs {
		if queued[id] != 1 || gone[id] != 1 {
			t.Fatalf("task %d: queued %d canceled %d, want exactly once each",
				id, queued[id], gone[id])
		}
	}
}

// requestCount sums the server's request counters over every op.
func requestCount(srv *Server) float64 {
	var n float64
	for k, v := range obs.Flatten(srv.met.reg.Gather()) {
		if strings.HasPrefix(k, "osprey_service_requests_total") {
			n += v
		}
	}
	return n
}

// TestWatchIdlePoolZeroReads is the issue's acceptance criterion: an idle
// 8-worker pool on watch-based fetch and a Future.Result parked on a task
// nobody serves issue zero periodic requests — no server-side request
// counter may move while they sit idle.
func TestWatchIdlePoolZeroReads(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p, err := pool.New(c, pool.Config{Name: "idle8", Workers: 8, BatchSize: 8, WorkType: 1},
		func(payload string) (string, error) { return "ok:" + payload, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx) }()

	// Prove the pool is live: push-dispatched work completes.
	res, err := c.Submit(context.Background(), "idle", 1, "t0")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts, err := c.Statuses(context.Background(), []int64{res.ID})
		if err == nil && sts[res.ID] == core.StatusComplete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task not completed by watch-driven pool")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Park a future on a work type no pool serves.
	f, err := future.Submit(c, "idle", 2, "t1")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res string
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := f.Result(10 * time.Second)
		got <- outcome{res, err}
	}()

	// Let the post-completion fetch cycle settle (the completion signal
	// triggers one final deficit check that discovers the queue empty) and
	// the future's subscribe land.
	time.Sleep(150 * time.Millisecond)
	start := requestCount(srv)
	time.Sleep(500 * time.Millisecond)
	if delta := requestCount(srv) - start; delta != 0 {
		t.Fatalf("idle pool and parked future issued %v requests in 500ms, want 0", delta)
	}

	// The parked future was live all along: completing its task wakes it.
	tasks, err := db.QueryTasks(context.Background(), 2, 1, "by-hand")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Report(context.Background(), tasks.Tasks[0].ID, 2, "done"); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-got:
		if o.err != nil || o.res != "done" {
			t.Fatalf("parked Result = %q, %v; want \"done\"", o.res, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Result did not wake on its task's completion")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("pool did not stop")
	}
}

// TestClusterCloseEndsStreams: closing a ClusterClient ends the watch
// streams opened through it. The stream's channel closes within a second,
// and the stream has not resubscribed: no connection is open again.
func TestClusterCloseEndsStreams(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cc, err := DialCluster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	st, err := cc.Watch(bg, watch.Query{All: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Submit(bg, "close", 1, "p"); err != nil {
		t.Fatal(err)
	}
	collectN(t, st, 1, waitMax)

	cc.Close()
	deadline := time.After(time.Second)
	for open := true; open; {
		select {
		case _, open = <-st.Events():
		case <-deadline:
			t.Fatal("the stream is still open a second after its client closed")
		}
	}
	cc.mu.Lock()
	conn, readers := cc.c, len(cc.readers)
	cc.mu.Unlock()
	if conn != nil || readers != 0 {
		t.Fatalf("after Close: leader connection open %t, %d read connections; want none", conn != nil, readers)
	}
}
