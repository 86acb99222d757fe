package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"osprey/internal/watch"
)

// collect drains events from a stream until n transitions arrive or the
// deadline hits.
func collect(t *testing.T, st watch.Stream, n int) []watch.Event {
	t.Helper()
	var out []watch.Event
	deadline := time.After(2 * time.Second)
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

// TestWatchLifecycleEvents drives a task through its full lifecycle with real
// session calls and asserts the classifier emits exactly the right
// transitions, with tokens strictly increasing.
func TestWatchLifecycleEvents(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	st, err := db.Watch(ctx, watch.Query{All: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res, err := db.Submit(ctx, "e1", 3, `{"x":1}`)
	if err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithTimeout(ctx, time.Second)
	if _, err := db.QueryTasks(qctx, 3, 1, "p0"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := db.Report(ctx, res.ID, 3, "done"); err != nil {
		t.Fatal(err)
	}

	evs := collect(t, st, 3)
	want := []string{watch.StatusQueued, watch.StatusRunning, watch.StatusComplete}
	var lastTok uint64
	for i, ev := range evs[:3] {
		if ev.TaskID != res.ID || ev.Status != want[i] || ev.WorkType != 3 {
			t.Fatalf("event %d = %+v, want task %d %s type 3", i, ev, res.ID, want[i])
		}
		if ev.Token <= lastTok {
			t.Fatalf("tokens not increasing: %d after %d", ev.Token, lastTok)
		}
		lastTok = ev.Token
	}
	// queued bumped the depth to 1, running brought it back to 0.
	if evs[0].Depth != 1 || evs[1].Depth != 0 {
		t.Fatalf("depths = %d,%d want 1,0", evs[0].Depth, evs[1].Depth)
	}
}

// TestWatchGateReleasesInIndexOrder: on a gated DB, commits applied above
// the publish watermark wait in the gate, and each AdvanceWatch releases
// exactly those its mark now covers, in index order, whole, and compacts what
// it still holds in place. Commits of 1-3 transitions interleave with marks
// that release none, one, several and all of them; a mark ahead of the log
// lets the next commits through at once.
func TestWatchGateReleasesInIndexOrder(t *testing.T) {
	db := walDB(t)
	db.GateWatch()
	st, err := db.Watch(within(t, waitMax), watch.Query{All: true}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type commit struct {
		tok Token
		ids []int64
	}
	var held []commit // applied, not yet received
	var mark Token    // the publish watermark: the gate holds what is above it
	submit := func(n int) Token {
		t.Helper()
		res, err := db.SubmitBatch(bg, "e", 1, make([]string, n), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, commit{res.Token, res.IDs})
		return res.Token
	}
	checkGate := func() {
		t.Helper()
		g := &db.gate
		g.mu.Lock()
		defer g.mu.Unlock()
		var gated []commit
		var ids []int64
		for _, c := range held {
			if c.tok > mark {
				gated = append(gated, c)
				ids = append(ids, c.ids...)
			}
		}
		if len(g.commits) != len(gated) || len(g.trs) != len(ids) {
			t.Fatalf("gate holds %d commits of %d transitions, want %d of %d", len(g.commits), len(g.trs), len(gated), len(ids))
		}
		for k, c := range g.commits {
			if c.idx != gated[k].tok || c.n != len(gated[k].ids) {
				t.Fatalf("gate commit %d = %+v, want index %d of %d", k, c, gated[k].tok, len(gated[k].ids))
			}
		}
		for i, tr := range g.trs {
			if tr.TaskID != ids[i] || tr.Status != watch.StatusQueued {
				t.Fatalf("gate transition %d = %+v, want task %d queued", i, tr, ids[i])
			}
		}
	}
	release := func(to Token) {
		t.Helper()
		mark = max(mark, to)
		var want []watch.Event
		for len(held) > 0 && held[0].tok <= mark {
			for _, id := range held[0].ids {
				want = append(want, watch.Event{Token: held[0].tok, TaskID: id, Status: watch.StatusQueued})
			}
			held = held[1:]
		}
		db.AdvanceWatch(to)
		for i, ev := range collect(t, st, len(want)) {
			if i >= len(want) || ev.Token != want[i].Token || ev.TaskID != want[i].TaskID || ev.Status != want[i].Status {
				t.Fatalf("released event %d = %+v, want %+v", i, ev, want)
			}
		}
		checkGate()
	}

	a := submit(1)
	submit(3)
	c := submit(2)
	checkGate()
	release(a - 1) // below every held commit: releases nothing
	release(a)     // the first alone
	d := submit(2)
	submit(1)
	release(c) // two commits, leaving two behind
	e := submit(3)
	release(d) // one, from the middle of what was applied
	release(e) // the rest
	release(e + 2)
	submit(2) // at or below the mark: published at once, the gate holds none
	f := submit(1)
	checkGate()
	release(f) // what the mark already covered arrives
	g := submit(2)
	submit(1)
	checkGate()
	release(g + 1)
}

// TestHugeCommitReleasesTransitionBuffers: the classify buffer and the
// gate's held transitions are kept between ordinary commits and released
// once one commit of more than keepTransitions tasks grew them past it.
func TestHugeCommitReleasesTransitionBuffers(t *testing.T) {
	db := walDB(t)
	db.GateWatch()
	submit := func(n int) Token {
		t.Helper()
		res, err := db.SubmitBatch(bg, "e", 1, make([]string, n), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Token
	}
	gateCap := func() int {
		db.gate.mu.Lock()
		defer db.gate.mu.Unlock()
		return cap(db.gate.trs)
	}
	db.AdvanceWatch(submit(3))
	if cap(db.trs) == 0 || gateCap() == 0 {
		t.Fatalf("an ordinary commit's buffers were not kept: caps %d and %d", cap(db.trs), gateCap())
	}
	db.AdvanceWatch(submit(keepTransitions + 1))
	if c, g := cap(db.trs), gateCap(); c > keepTransitions || g > keepTransitions {
		t.Fatalf("after %d transitions the buffers keep capacities %d and %d, over the bound %d", keepTransitions+1, c, g, keepTransitions)
	}
}

func TestWatchCancelAndRequeueEvents(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	st, err := db.Watch(ctx, watch.Query{All: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Cancel path: queued then canceled.
	a, err := db.Submit(ctx, "e1", 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CancelTasks(ctx, []int64{a.ID}); err != nil {
		t.Fatal(err)
	}

	// Requeue path: queued, popped running by pool p1, requeued -> queued again.
	b, err := db.Submit(ctx, "e1", 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithTimeout(ctx, time.Second)
	if _, err := db.QueryTasks(qctx, 1, 1, "p1"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := db.RequeueRunning(ctx, "p1"); err != nil {
		t.Fatal(err)
	}

	evs := collect(t, st, 5)
	type tr struct {
		id int64
		st string
	}
	got := make([]tr, 0, len(evs))
	for _, ev := range evs {
		got = append(got, tr{ev.TaskID, ev.Status})
	}
	want := []tr{
		{a.ID, watch.StatusQueued},
		{a.ID, watch.StatusCanceled},
		{b.ID, watch.StatusQueued},
		{b.ID, watch.StatusRunning},
		{b.ID, watch.StatusQueued}, // requeue is exactly one queued transition
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("transition %d = %+v, want %+v (all: %+v)", i, got[i], w, got)
		}
	}
}

// TestWatchResume asserts the exactly-once resume contract: a subscriber that
// reconnects with its last token sees precisely the transitions it missed.
func TestWatchResume(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	st, err := db.Watch(ctx, watch.Query{All: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Submit(ctx, "e1", 1, "a")
	evs := collect(t, st, 1)
	last := evs[len(evs)-1].Token
	st.Close()

	// Transitions while disconnected.
	b, _ := db.Submit(ctx, "e1", 1, "b")
	if _, err := db.CancelTasks(ctx, []int64{a.ID}); err != nil {
		t.Fatal(err)
	}

	st2, err := db.Watch(ctx, watch.Query{All: true, Since: last}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	missed := collect(t, st2, 2)
	if missed[0].TaskID != b.ID || missed[0].Status != watch.StatusQueued {
		t.Fatalf("missed[0] = %+v", missed[0])
	}
	if missed[1].TaskID != a.ID || missed[1].Status != watch.StatusCanceled {
		t.Fatalf("missed[1] = %+v", missed[1])
	}
	for _, ev := range missed {
		if ev.Token <= last {
			t.Fatalf("replayed token %d <= resume point %d (duplicate)", ev.Token, last)
		}
	}
}

// TestWatchTaskResync asserts the compaction fallback: a task watch whose
// since-token predates the ring gets a Resync event with current status.
func TestWatchTaskResync(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	id, _ := db.Submit(ctx, "e1", 2, "x")
	if _, err := db.CancelTasks(ctx, []int64{id.ID}); err != nil {
		t.Fatal(err)
	}
	// Force compaction by resetting the hub floor past all history.
	db.ResetWatch(db.Token() + 100)

	st, err := db.Watch(ctx, watch.Query{TaskID: id.ID, Since: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs := collect(t, st, 1)
	if !evs[0].Resync || evs[0].Status != watch.StatusCanceled || evs[0].TaskID != id.ID {
		t.Fatalf("resync event = %+v, want canceled resync for task %d", evs[0], id.ID)
	}
}

// TestWatchQueuedResync: a Queued type watch whose since-token predates the
// ring still gets its resync seam — the type's current depth as a queued
// Resync event — and then only the type's queued transitions.
func TestWatchQueuedResync(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	if _, err := db.SubmitBatch(ctx, "e1", 3, []string{"a", "b"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	popped, err := db.QueryTasks(within(t, waitMax), 3, 1, "p")
	if err != nil || len(popped.Tasks) != 1 {
		t.Fatalf("QueryTasks = %+v, %v", popped, err)
	}
	// Force compaction by resetting the hub floor past all history.
	db.ResetWatch(db.Token() + 100)

	st, err := db.Watch(ctx, watch.Query{WorkType: 3, Queued: true, Since: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs := collect(t, st, 1)
	if len(evs) != 1 || !evs[0].Resync || evs[0].Status != watch.StatusQueued || evs[0].WorkType != 3 || evs[0].Depth != 1 {
		t.Fatalf("resync = %+v, want one queued resync event for type 3 at depth 1", evs)
	}
	if _, err := db.Report(ctx, popped.Tasks[0].ID, 3, "r"); err != nil {
		t.Fatal(err)
	}
	c, err := db.Submit(ctx, "e1", 3, "c")
	if err != nil {
		t.Fatal(err)
	}
	evs = collect(t, st, 1)
	if len(evs) != 1 || evs[0].TaskID != c.ID || evs[0].Status != watch.StatusQueued || evs[0].Resync {
		t.Fatalf("after the seam got %+v, want only task %d's queued transition", evs, c.ID)
	}
}

// TestCommitObserverWakesPolls: the commit observer is the only thing that
// wakes a parked long-poll, so every transition that fills a queue must wake
// the poll on that queue — on the database that committed it and on one that
// only replays it through Engine.ApplyEntry, as a follower does. An edit to a
// transition statement that silently stops classification fails here instead
// of stalling pops.
func TestCommitObserverWakesPolls(t *testing.T) {
	queryTasks := func(ctx context.Context, db *DB) error {
		_, err := db.QueryTasks(ctx, 1, 1, "parked")
		return err
	}
	// runOne leaves task 1 running under pool "p".
	runOne := func(t *testing.T, db *DB) {
		if _, err := db.Submit(bg, "e", 1, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryTasks(within(t, waitMax), 1, 1, "p"); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		prep func(t *testing.T, db *DB)              // state before the poll parks
		poll func(ctx context.Context, db *DB) error // parks: its queue is empty
		act  func(db *DB) error                      // the transition that fills it
	}{
		{"Submit", nil, queryTasks, func(db *DB) error {
			_, err := db.Submit(bg, "e", 1, "x")
			return err
		}},
		{"SubmitBatch", nil, queryTasks, func(db *DB) error {
			_, err := db.SubmitBatch(bg, "e", 1, []string{"x", "y"}, nil, nil)
			return err
		}},
		{"RequeueRunning", runOne, queryTasks, func(db *DB) error {
			_, err := db.RequeueRunning(bg, "p")
			return err
		}},
		{"Report", runOne, func(ctx context.Context, db *DB) error {
			_, err := db.PopResults(ctx, []int64{1}, 1)
			return err
		}, func(db *DB) error {
			_, err := db.Report(bg, 1, 1, "done")
			return err
		}},
	}
	// woken parks poll on db, runs wake, and fails unless the poll then
	// returns its rows promptly.
	woken := func(t *testing.T, db *DB, poll func(context.Context, *DB) error, wake func()) {
		t.Helper()
		ctx, done := within(t, waitMax), make(chan error, 1)
		go func() { done <- poll(ctx, db) }()
		time.Sleep(4 * tick) // let the poll find its queue empty and park
		start := time.Now()
		wake()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("parked poll: %v", err)
			}
			if d := time.Since(start); d > 50*time.Millisecond {
				t.Fatalf("parked poll returned %v after the transition, want under 50ms", d)
			}
		case <-time.After(waitMax):
			t.Fatal("the transition did not wake the parked poll")
		}
	}
	for _, tc := range cases {
		t.Run(tc.name+"/committed", func(t *testing.T) {
			db := newTestDB(t)
			if tc.prep != nil {
				tc.prep(t, db)
			}
			woken(t, db, tc.poll, func() {
				if err := tc.act(db); err != nil {
					t.Error(err)
				}
			})
		})
		t.Run(tc.name+"/replayed", func(t *testing.T) {
			src, rep := newTestDB(t), newTestDB(t)
			log := captureLog(src.Engine())
			applied := 0
			replay := func() {
				for ; applied < len(*log); applied++ {
					if err := rep.Engine().ApplyEntry((*log)[applied]); err != nil {
						t.Errorf("replaying entry %d: %v", (*log)[applied].Index, err)
					}
				}
			}
			if tc.prep != nil {
				tc.prep(t, src)
			}
			replay()
			woken(t, rep, tc.poll, func() {
				if err := tc.act(src); err != nil {
					t.Error(err)
				}
				replay()
			})
		})
	}
}

// TestParkedPollsIdle: idle means idle. A parked QueryTasks and a parked
// PopResults wait for the commit observer and execute nothing meanwhile — the
// engine's statement count (plan-cache hits + misses) does not move.
func TestParkedPollsIdle(t *testing.T) {
	db := newTestDB(t)
	id, err := idOf(db.Submit(bg, "e", 2, "never reported"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 2)
	go func() {
		_, err := db.QueryTasks(ctx, 1, 1, "parked")
		done <- err
	}()
	go func() {
		_, err := db.PopResults(ctx, []int64{id}, 1)
		done <- err
	}()
	statements := func() uint64 {
		st := db.Engine().PlanCacheStats()
		return st.Hits + st.Misses
	}
	time.Sleep(4 * tick) // both polls have run their one empty pop
	before := statements()
	time.Sleep(500 * time.Millisecond)
	if n := statements() - before; n != 0 {
		t.Fatalf("two parked polls executed %d statements in 500ms, want 0", n)
	}
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("parked poll ended with %v, want context.Canceled", err)
		}
	}
}
