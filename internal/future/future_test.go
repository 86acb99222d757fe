package future

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/service"
)

const (
	tick    = 5 * time.Millisecond
	waitMax = 2 * time.Second
)

func newDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.NewDB()
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// worker pops and echoes tasks until ctx is done.
func worker(ctx context.Context, db *core.DB, workType int, transform func(string) string) {
	go func() {
		for ctx.Err() == nil {
			qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			res, err := db.QueryTasks(qctx, workType, 4, "test-pool")
			cancel()
			if err != nil {
				continue
			}
			for _, task := range res.Tasks {
				db.Report(context.Background(), task.ID, workType, transform(task.Payload))
			}
		}
	}()
}

// popOne pops up to n tasks directly off the DB (test plumbing).
func popOne(t *testing.T, db *core.DB, workType, n int) []core.Task {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	res, err := db.QueryTasks(ctx, workType, n, "p")
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	return res.Tasks
}

func TestFutureResult(t *testing.T) {
	db := newDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker(ctx, db, 1, func(p string) string { return "echo:" + p })

	f, err := Submit(db, "e", 1, "hello")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if f.Done() {
		t.Fatal("future done before result")
	}
	res, err := f.Result(waitMax)
	if err != nil || res != "echo:hello" {
		t.Fatalf("Result = %q, %v", res, err)
	}
	if !f.Done() {
		t.Fatal("future not done after result")
	}
	// Cached: a second call returns instantly even though the queue entry is gone.
	res2, err := f.Result(time.Millisecond)
	if err != nil || res2 != res {
		t.Fatalf("cached Result = %q, %v", res2, err)
	}
}

// TestResultResubscribesWhenStreamEnds kills the stream under a waiting
// Result (a hub reset terminates every subscription, as a snapshot install
// does) and sees the same call resubscribe and complete: watching is the one
// way a Result waits, so a dead stream is replaced, not abandoned for a poll.
func TestResultResubscribesWhenStreamEnds(t *testing.T) {
	db := newDB(t)
	f, err := Submit(db, "e", 1, "hello")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res string
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := f.Result(waitMax)
		got <- outcome{res, err}
	}()
	subs := db.Metrics().Gauge("osprey_watch_subscriptions")
	subscribed := func() {
		t.Helper()
		for deadline := time.Now().Add(waitMax); subs.Value() != 1; time.Sleep(tick) {
			if time.Now().After(deadline) {
				t.Fatalf("Result holds %v subscriptions, want 1", subs.Value())
			}
		}
	}
	subscribed()
	db.ResetWatch(db.Token())
	subscribed()

	task := popOne(t, db, 1, 1)[0]
	if _, err := db.Report(context.Background(), task.ID, 1, "echo:hello"); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-got:
		if o.err != nil || o.res != "echo:hello" {
			t.Fatalf("Result across a stream reset = %q, %v", o.res, o.err)
		}
	case <-time.After(waitMax):
		t.Fatal("Result did not complete after its stream was reset")
	}
}

func TestFutureStatus(t *testing.T) {
	db := newDB(t)
	f, err := Submit(db, "e", 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Status()
	if err != nil || st != core.StatusQueued {
		t.Fatalf("Status = %v, %v", st, err)
	}
	tasks := popOne(t, db, 1, 1)
	st, _ = f.Status()
	if st != core.StatusRunning {
		t.Fatalf("Status = %v, want running", st)
	}
	db.Report(context.Background(), tasks[0].ID, 1, "done")
	st, _ = f.Status()
	if st != core.StatusComplete {
		t.Fatalf("Status = %v, want complete", st)
	}
}

func TestFutureCancel(t *testing.T) {
	db := newDB(t)
	f, _ := Submit(db, "e", 1, "x")
	ok, err := f.Cancel()
	if err != nil || !ok {
		t.Fatalf("Cancel = %v, %v", ok, err)
	}
	st, _ := f.Status()
	if st != core.StatusCanceled {
		t.Fatalf("Status after cancel = %v", st)
	}
	if _, err := f.Result(30 * time.Millisecond); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Result after cancel = %v, want ErrCanceled", err)
	}
	// Cancel after pop fails.
	g, _ := Submit(db, "e", 1, "y")
	popOne(t, db, 1, 1)
	ok, _ = g.Cancel()
	if ok {
		t.Fatal("canceled a running task")
	}
}

func TestFuturePriority(t *testing.T) {
	db := newDB(t)
	f, _ := Submit(db, "e", 1, "x", core.WithPriority(5))
	priority := func() (int, bool) {
		t.Helper()
		prios, err := db.Priorities(context.Background(), []int64{f.TaskID()})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := prios[f.TaskID()]
		return p, ok
	}
	if p, ok := priority(); !ok || p != 5 {
		t.Fatalf("priority = %d, %v; want 5", p, ok)
	}
	changed, err := UpdatePriorities([]*Future{f}, []int{9})
	if err != nil || changed != 1 {
		t.Fatalf("UpdatePriorities = %v, %v", changed, err)
	}
	if p, _ := priority(); p != 9 {
		t.Fatalf("priority = %d, want 9", p)
	}
	popOne(t, db, 1, 1)
	if _, ok := priority(); ok {
		t.Fatal("running task still reports a queue priority")
	}
}

func TestPopCompleted(t *testing.T) {
	db := newDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker(ctx, db, 1, func(p string) string { return p + "!" })

	var fs []*Future
	for i := 0; i < 5; i++ {
		f, _ := Submit(db, "e", 1, fmt.Sprint(i))
		fs = append(fs, f)
	}
	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		f, err := PopCompleted(&fs, waitMax)
		if err != nil {
			t.Fatalf("PopCompleted %d: %v", i, err)
		}
		if seen[f.TaskID()] {
			t.Fatalf("future %d popped twice", f.TaskID())
		}
		seen[f.TaskID()] = true
		if len(fs) != 5-i-1 {
			t.Fatalf("len(fs) = %d after %d pops", len(fs), i+1)
		}
		res, _ := f.Result(time.Millisecond)
		if res == "" {
			t.Fatal("popped future has no cached result")
		}
	}
	if _, err := PopCompleted(&fs, time.Millisecond); err == nil {
		t.Fatal("PopCompleted on empty list must error")
	}
}

func TestAsCompleted(t *testing.T) {
	db := newDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker(ctx, db, 1, func(p string) string { return p })

	var fs []*Future
	for i := 0; i < 8; i++ {
		f, _ := Submit(db, "e", 1, fmt.Sprint(i))
		fs = append(fs, f)
	}
	// Ask for exactly 3 completions.
	n := 0
	for f := range AsCompleted(ctx, fs, 3) {
		if !f.Done() {
			t.Fatal("yielded future not done")
		}
		n++
	}
	if n != 3 {
		t.Fatalf("AsCompleted yielded %d, want 3", n)
	}
	// Remaining 5 come back when asking for all.
	remaining := make([]*Future, 0, 5)
	for _, f := range fs {
		if !f.Done() {
			remaining = append(remaining, f)
		}
	}
	n = 0
	for range AsCompleted(ctx, remaining, 0) {
		n++
	}
	if n != 5 {
		t.Fatalf("second AsCompleted yielded %d, want 5", n)
	}
}

func TestAsCompletedContextCancel(t *testing.T) {
	db := newDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	f, _ := Submit(db, "e", 1, "never-completes")
	ch := AsCompleted(ctx, []*Future{f}, 1)
	cancel()
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("channel yielded after cancel")
		}
	case <-time.After(waitMax):
		t.Fatal("AsCompleted did not close on context cancel")
	}
}

func TestUpdatePrioritiesBatch(t *testing.T) {
	db := newDB(t)
	var fs []*Future
	for i := 0; i < 6; i++ {
		f, _ := Submit(db, "e", 1, fmt.Sprint(i))
		fs = append(fs, f)
	}
	prios := []int{6, 5, 4, 3, 2, 1}
	n, err := UpdatePriorities(fs, prios)
	if err != nil || n != 6 {
		t.Fatalf("UpdatePriorities = %d, %v", n, err)
	}
	tasks := popOne(t, db, 1, 6)
	for i, task := range tasks {
		if task.ID != fs[i].TaskID() {
			t.Fatalf("pop order after batch reprio wrong at %d: %+v", i, tasks)
		}
	}
	if n, _ := UpdatePriorities(nil, nil); n != 0 {
		t.Fatal("empty UpdatePriorities must be a no-op")
	}
}

func TestCancelAll(t *testing.T) {
	db := newDB(t)
	var fs []*Future
	for i := 0; i < 4; i++ {
		f, _ := Submit(db, "e", 1, "x")
		fs = append(fs, f)
	}
	popOne(t, db, 1, 1) // one becomes running
	n := 0
	for _, f := range fs {
		ok, err := f.Cancel()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("canceled %d futures, want the 3 still queued", n)
	}
}

func TestWrap(t *testing.T) {
	db := newDB(t)
	sub, _ := db.Submit(context.Background(), "e", 7, "payload")
	f := Wrap(db, sub.ID, 7)
	id := sub.ID
	if f.TaskID() != id || f.workType != 7 {
		t.Fatalf("Wrap = %+v", f)
	}
	st, err := f.Status()
	if err != nil || st != core.StatusQueued {
		t.Fatalf("wrapped Status = %v, %v", st, err)
	}
}

func TestConcurrentResultCallers(t *testing.T) {
	db := newDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker(ctx, db, 1, func(p string) string { return "r" })
	f, _ := Submit(db, "e", 1, "x")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Result(waitMax)
			if err != nil {
				// Only one goroutine can pop the queue entry; others may race
				// and find it cached — either way the value must be "r".
				errs <- err
				return
			}
			if res != "r" {
				errs <- fmt.Errorf("res = %q", res)
			}
		}()
	}
	wg.Wait()
	close(errs)
	// At least one caller must have succeeded, and the future must be done.
	if !f.Done() {
		t.Fatal("future not done")
	}
}

// TestFuturesOverRemoteService exercises the async API end to end through
// the TCP service client, the deployment the paper's ME algorithm uses.
func TestFuturesOverRemoteService(t *testing.T) {
	db := newDB(t)
	srv, err := service.Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := service.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var fs []*Future
	for i := 0; i < 6; i++ {
		f, err := Submit(client, "remote-exp", 1, fmt.Sprint(i))
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	// Reprioritize before any worker exists so all six are still queued.
	if n, err := UpdatePriorities(fs, []int{1, 2, 3, 4, 5, 6}); err != nil || n != 6 {
		t.Fatalf("remote UpdatePriorities = %d, %v", n, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker(ctx, db, 1, func(p string) string { return "remote:" + p })
	got := 0
	for f := range AsCompleted(ctx, fs, 0) {
		res, err := f.Result(time.Second)
		if err != nil || res == "" {
			t.Fatalf("remote result = %q, %v", res, err)
		}
		got++
	}
	if got != 6 {
		t.Fatalf("completed %d futures remotely, want 6", got)
	}
}
