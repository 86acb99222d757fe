package watch

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"osprey/internal/obs"
)

func recv(t *testing.T, sub *Sub) []Event {
	t.Helper()
	select {
	case batch, ok := <-sub.C:
		if !ok {
			t.Fatalf("subscription closed: %v", sub.Err())
		}
		return batch
	default:
		t.Fatalf("no batch buffered")
		return nil
	}
}

func TestHubCommitAndFilter(t *testing.T) {
	h := NewHub(0, nil)
	all, _, _, _ := h.Subscribe(Query{All: true}, 8)
	byType, _, _, _ := h.Subscribe(Query{WorkType: 1}, 8)
	byTask, _, _, _ := h.Subscribe(Query{TaskID: 2}, 8)

	h.Commit(10, []Transition{
		{TaskID: 1, WorkType: 1, Status: StatusQueued},
		{TaskID: 2, WorkType: 2, Status: StatusQueued},
	})
	batch := recv(t, all)
	if len(batch) != 2 || batch[0].Token != 10 || batch[1].Token != 10 {
		t.Fatalf("all subscriber got %+v", batch)
	}
	tb := recv(t, byType)
	if len(tb) != 1 || tb[0].TaskID != 1 {
		t.Fatalf("work-type subscriber got %+v", tb)
	}
	kb := recv(t, byTask)
	if len(kb) != 1 || kb[0].TaskID != 2 {
		t.Fatalf("task subscriber got %+v", kb)
	}
	if d := h.Depth(1); d != 1 {
		t.Fatalf("depth(1) = %d, want 1", d)
	}

	// Status-only transition: the hub resolves the work type it learned at
	// queue time, and running decrements the depth.
	h.Commit(11, []Transition{{TaskID: 1, WorkType: -1, Status: StatusRunning}})
	rb := recv(t, byType)
	if len(rb) != 1 || rb[0].WorkType != 1 || rb[0].Status != StatusRunning || rb[0].Depth != 0 {
		t.Fatalf("running event = %+v", rb[0])
	}
	if d := h.Depth(1); d != 0 {
		t.Fatalf("depth(1) after running = %d, want 0", d)
	}
}

// statuses lists a batch's (task, status) pairs in order.
func statuses(batch []Event) []string {
	out := make([]string, len(batch))
	for i, ev := range batch {
		out[i] = fmt.Sprintf("%d:%s", ev.TaskID, ev.Status)
	}
	return out
}

// TestHubQueuedFilter: a Queued subscriber receives the queued events of a
// mixed commit and none of its running, complete or canceled ones, live and
// in a Since replay alike; a commit with nothing queued sends it nothing. A
// WorkType subscriber on the same hub still receives every transition.
func TestHubQueuedFilter(t *testing.T) {
	h := NewHub(0, nil)
	queued, _, _, _ := h.Subscribe(Query{WorkType: 1, Queued: true}, 8)
	byType, _, _, _ := h.Subscribe(Query{WorkType: 1}, 8)

	h.Commit(1, []Transition{
		{TaskID: 1, WorkType: 1, Status: StatusQueued},
		{TaskID: 2, WorkType: 1, Status: StatusQueued},
		{TaskID: 3, WorkType: 2, Status: StatusQueued},
	})
	h.Commit(2, []Transition{
		{TaskID: 1, WorkType: -1, Status: StatusRunning},
		{TaskID: 4, WorkType: 1, Status: StatusQueued},
		{TaskID: 2, WorkType: -1, Status: StatusCanceled},
		{TaskID: 5, WorkType: 1, Status: StatusQueued},
	})
	h.Commit(3, []Transition{{TaskID: 1, WorkType: -1, Status: StatusComplete}})

	want := [][]string{{"1:queued", "2:queued"}, {"4:queued", "5:queued"}}
	for i, w := range want {
		if got := statuses(recv(t, queued)); !slices.Equal(got, w) {
			t.Fatalf("queued subscriber's batch %d = %v, want %v", i, got, w)
		}
	}
	if n := len(queued.C); n != 0 {
		t.Fatalf("queued subscriber holds %d more batches, want none for a commit with nothing queued", n)
	}
	wantAll := [][]string{
		{"1:queued", "2:queued"},
		{"1:running", "4:queued", "2:canceled", "5:queued"},
		{"1:complete"},
	}
	for i, w := range wantAll {
		if got := statuses(recv(t, byType)); !slices.Equal(got, w) {
			t.Fatalf("work-type subscriber's batch %d = %v, want %v", i, got, w)
		}
	}

	_, replay, _, compacted := h.Subscribe(Query{WorkType: 1, Queued: true, Since: 1}, 8)
	if compacted {
		t.Fatal("unexpected compaction")
	}
	if got, w := statuses(replay), []string{"4:queued", "5:queued"}; !slices.Equal(got, w) {
		t.Fatalf("queued replay = %v, want %v", got, w)
	}
	_, replay, _, _ = h.Subscribe(Query{WorkType: 1, Since: 1}, 8)
	if got, w := statuses(replay), []string{"1:running", "4:queued", "2:canceled", "5:queued", "1:complete"}; !slices.Equal(got, w) {
		t.Fatalf("work-type replay = %v, want %v", got, w)
	}
}

func TestHubSelfAssignedTokens(t *testing.T) {
	h := NewHub(0, nil)
	h.Commit(0, []Transition{{TaskID: 1, WorkType: 0, Status: StatusQueued}})
	h.Commit(0, []Transition{{TaskID: 2, WorkType: 0, Status: StatusQueued}})
	if last := h.Last(); last != 2 {
		t.Fatalf("Last = %d, want 2 (self-assigned monotonic)", last)
	}
}

func TestHubResumeReplay(t *testing.T) {
	h := NewHub(0, nil)
	h.Commit(5, []Transition{{TaskID: 1, WorkType: 0, Status: StatusQueued}})
	h.Commit(6, []Transition{{TaskID: 1, WorkType: 0, Status: StatusRunning}})
	h.Commit(7, []Transition{{TaskID: 1, WorkType: 0, Status: StatusComplete}})

	_, replay, last, compacted := h.Subscribe(Query{All: true, Since: 5}, 8)
	if compacted {
		t.Fatalf("unexpected compaction")
	}
	if last != 7 {
		t.Fatalf("last = %d, want 7", last)
	}
	if len(replay) != 2 || replay[0].Token != 6 || replay[1].Token != 7 {
		t.Fatalf("replay = %+v, want tokens 6,7", replay)
	}
}

func TestHubCompaction(t *testing.T) {
	h := NewHub(4, nil)
	for i := uint64(1); i <= 10; i++ {
		h.Commit(i, []Transition{{TaskID: int64(i), WorkType: 0, Status: StatusQueued}})
	}
	_, replay, _, compacted := h.Subscribe(Query{All: true, Since: 2}, 8)
	if !compacted {
		t.Fatalf("want compacted resume for since=2 with ring max 4")
	}
	if replay != nil {
		t.Fatalf("compacted resume must not replay, got %+v", replay)
	}
	// A resume inside the retained window still replays.
	_, replay, _, compacted = h.Subscribe(Query{All: true, Since: 8}, 8)
	if compacted || len(replay) != 2 {
		t.Fatalf("tail resume: compacted=%v replay=%+v", compacted, replay)
	}
}

func TestHubWholeCommitTrim(t *testing.T) {
	h := NewHub(3, nil)
	// One commit of 2 events, then another of 2: trimming to fit 3 must drop
	// the first commit whole, never leave half a token group.
	h.Commit(1, []Transition{
		{TaskID: 1, WorkType: 0, Status: StatusQueued},
		{TaskID: 2, WorkType: 0, Status: StatusQueued},
	})
	h.Commit(2, []Transition{
		{TaskID: 3, WorkType: 0, Status: StatusQueued},
		{TaskID: 4, WorkType: 0, Status: StatusQueued},
	})
	_, replay, _, compacted := h.Subscribe(Query{All: true, Since: 1}, 8)
	if compacted {
		t.Fatalf("since=1 is exactly the floor; must not be compacted")
	}
	if len(replay) != 2 || replay[0].Token != 2 || replay[1].Token != 2 {
		t.Fatalf("replay after trim = %+v, want both token-2 events", replay)
	}
}

// TestHubHeldBatchesOutliveRing: a delivered batch aliases the hub's ring,
// so it must stay as delivered however long its subscriber holds it. One
// subscriber keeps every batch, reading each as it arrives on its own
// goroutine, while more than 3 × the ring's size commits through — the ring
// trims and regrows many times — and the caller reuses one transition buffer
// for every commit, as the commit observer does.
func TestHubHeldBatchesOutliveRing(t *testing.T) {
	const ring, commits = 16, 40 // 1-3 events a commit: 80 events, 5 rings
	h := NewHub(ring, nil)
	sub, _, _, _ := h.Subscribe(Query{All: true}, commits)
	want := func(tok uint64) []Event {
		evs := make([]Event, 1+tok%3)
		for j := range evs {
			evs[j] = Event{Token: tok, TaskID: int64(10*tok) + int64(j), WorkType: -1, Status: StatusRunning}
		}
		return evs
	}
	held, copies := make([][]Event, 0, commits), make([][]Event, 0, commits)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range sub.C {
			held = append(held, batch)
			copies = append(copies, slices.Clone(batch))
			if len(held) == commits {
				return
			}
		}
	}()
	var trs []Transition
	for tok := uint64(1); tok <= commits; tok++ {
		trs = trs[:0]
		for _, ev := range want(tok) {
			trs = append(trs, Transition{TaskID: ev.TaskID, WorkType: -1, Status: StatusRunning})
		}
		h.Commit(tok, trs)
	}
	<-done
	if len(held) != commits {
		t.Fatalf("received %d batches, want %d", len(held), commits)
	}
	for k, batch := range held {
		tok := uint64(k + 1)
		if !slices.Equal(copies[k], want(tok)) {
			t.Fatalf("batch %d was delivered as %+v, want %+v", tok, copies[k], want(tok))
		}
		if !slices.Equal(batch, copies[k]) {
			t.Fatalf("held batch %d reads %+v after later commits, was delivered as %+v", tok, batch, copies[k])
		}
	}
}

func TestHubOverflowKillsSubscriber(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHub(0, reg)
	sub, _, _, _ := h.Subscribe(Query{All: true}, 1)
	h.Commit(1, []Transition{{TaskID: 1, WorkType: 0, Status: StatusQueued}})
	h.Commit(2, []Transition{{TaskID: 2, WorkType: 0, Status: StatusQueued}})
	// Buffer of 1 held the first batch; the second must kill the sub.
	batch, ok := <-sub.C
	if !ok || len(batch) != 1 {
		t.Fatalf("first batch: ok=%v batch=%+v", ok, batch)
	}
	if _, ok := <-sub.C; ok {
		t.Fatalf("subscription survived overflow")
	}
	if !errors.Is(sub.Err(), ErrOverflow) {
		t.Fatalf("Err = %v, want ErrOverflow", sub.Err())
	}
}

func TestHubReset(t *testing.T) {
	h := NewHub(0, nil)
	sub, _, _, _ := h.Subscribe(Query{All: true}, 4)
	h.Commit(5, []Transition{{TaskID: 1, WorkType: 1, Status: StatusQueued}})
	<-sub.C
	h.Reset(20, map[int64]int{7: 2}, map[int]int{2: 1})
	if _, ok := <-sub.C; ok {
		t.Fatalf("subscription survived reset")
	}
	if !errors.Is(sub.Err(), ErrReset) {
		t.Fatalf("Err = %v, want ErrReset", sub.Err())
	}
	if h.Last() != 20 || h.Depth(2) != 1 {
		t.Fatalf("post-reset last=%d depth(2)=%d", h.Last(), h.Depth(2))
	}
	// since below the new floor is compacted; at the floor is live.
	if _, _, _, compacted := h.Subscribe(Query{All: true, Since: 19}, 4); !compacted {
		t.Fatalf("since=19 across a reset to 20 must be compacted")
	}
	if _, _, _, compacted := h.Subscribe(Query{All: true, Since: 20}, 4); compacted {
		t.Fatalf("since=20 is current; must not be compacted")
	}
}

func TestSubCloseIdempotent(t *testing.T) {
	h := NewHub(0, nil)
	sub, _, _, _ := h.Subscribe(Query{All: true}, 1)
	sub.Close()
	sub.Close()
	if err := sub.Err(); err != nil {
		t.Fatalf("Err after user close = %v, want nil", err)
	}
	// Committing after close must not deliver (and not panic on a closed chan).
	h.Commit(1, []Transition{{TaskID: 1, WorkType: 0, Status: StatusQueued}})
}
