package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/telemetry"
	"osprey/internal/watch"
)

const (
	tick    = 2 * time.Millisecond
	waitMax = 5 * time.Second
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

// The tests call the Session surface directly; these shorthands only supply
// the context and project a result struct onto the one field a test compares.
var bg = context.Background()

// within returns a context that expires after d, the polling calls' timeout.
// It is released when the test ends.
func within(t testing.TB, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func idOf(r core.SubmitRes, err error) (int64, error)                   { return r.ID, err }
func resultOf(r core.ResultRes, err error) (string, error)              { return r.Result, err }
func resultsOf(r core.ResultsRes, err error) ([]core.TaskResult, error) { return r.Results, err }

func echoExec(payload string) (string, error) { return "r:" + payload, nil }

func submitN(t *testing.T, db *core.DB, workType, n int) []int64 {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		id, err := idOf(db.Submit(bg, "e", workType, fmt.Sprint(i)))
		if err != nil {
			t.Fatalf("SubmitTask: %v", err)
		}
		ids[i] = id
	}
	return ids
}

// runPool starts the pool and returns a cancel-and-wait function.
func runPool(t *testing.T, p *Pool) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()
	return func() {
		cancel()
		select {
		case <-done:
		case <-time.After(waitMax):
			t.Fatal("pool did not shut down")
		}
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(waitMax)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(tick)
	}
	t.Fatal(msg)
}

func TestPoolExecutesAllTasks(t *testing.T) {
	db := newDB(t)
	ids := submitN(t, db, 1, 40)
	p, err := New(db, Config{Name: "p1", Workers: 4, BatchSize: 8, WorkType: 1}, echoExec, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stop := runPool(t, p)
	defer stop()

	results, err := resultsOf(db.PopResults(within(t, waitMax), ids, len(ids)))
	total := len(results)
	for err == nil && total < len(ids) {
		results, err = resultsOf(db.PopResults(within(t, waitMax), ids, len(ids)))
		total += len(results)
	}
	if err != nil {
		t.Fatalf("PopResults: %v (got %d)", err, total)
	}
	if total != len(ids) {
		t.Fatalf("completed %d, want %d", total, len(ids))
	}
	waitFor(t, func() bool { return p.Executed() == len(ids) }, "Executed never reached total")
	if p.Owned() != 0 {
		t.Fatalf("Owned = %d after drain", p.Owned())
	}
}

func TestPoolResultContents(t *testing.T) {
	db := newDB(t)
	id, _ := idOf(db.Submit(bg, "e", 1, "payload-x"))
	p, _ := New(db, Config{Name: "p", Workers: 1, WorkType: 1}, echoExec, nil)
	stop := runPool(t, p)
	defer stop()
	res, err := resultOf(db.QueryResult(within(t, waitMax), id))
	if err != nil || res != "r:payload-x" {
		t.Fatalf("result = %q, %v", res, err)
	}
}

func TestPoolWorkTypeFilter(t *testing.T) {
	db := newDB(t)
	simID, _ := idOf(db.Submit(bg, "e", 1, "sim"))
	gpuID, _ := idOf(db.Submit(bg, "e", 2, "gpu"))
	p, _ := New(db, Config{Name: "gpu-pool", Workers: 2, WorkType: 2}, echoExec, nil)
	stop := runPool(t, p)
	defer stop()
	if res, err := resultOf(db.QueryResult(within(t, waitMax), gpuID)); err != nil || res != "r:gpu" {
		t.Fatalf("gpu result = %q, %v", res, err)
	}
	// The type-1 task must remain untouched.
	st, _ := db.Statuses(bg, []int64{simID})
	if st[simID] != core.StatusQueued {
		t.Fatalf("type-1 task status = %v, want queued", st[simID])
	}
}

func TestPoolOwnershipCap(t *testing.T) {
	db := newDB(t)
	submitN(t, db, 1, 100)
	block := make(chan struct{})
	var peak atomic.Int64
	exec := func(payload string) (string, error) {
		<-block
		return "ok", nil
	}
	p, _ := New(db, Config{Name: "p", Workers: 3, BatchSize: 10, WorkType: 1}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	// With all workers blocked the pool may own at most BatchSize tasks.
	waitFor(t, func() bool {
		n := int64(p.Owned())
		if n > peak.Load() {
			peak.Store(n)
		}
		return n >= 3 // workers have picked up tasks
	}, "pool never picked up tasks")
	time.Sleep(50 * time.Millisecond)
	if got := peak.Load(); got > 10 {
		t.Fatalf("owned peaked at %d, cap is 10", got)
	}
	close(block)
	waitFor(t, func() bool { return p.Executed() == 100 }, "pool did not finish after unblock")
}

func TestPoolThresholdDefersFetching(t *testing.T) {
	db := newDB(t)
	submitN(t, db, 1, 30)
	release := make(chan struct{}, 30)
	exec := func(payload string) (string, error) {
		<-release
		return "ok", nil
	}
	// BatchSize 10, threshold 5: after the initial fill, completing 4 tasks
	// must not trigger a refetch; completing a 5th must.
	p, _ := New(db, Config{Name: "p", Workers: 10, BatchSize: 10, Threshold: 5, WorkType: 1}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	waitFor(t, func() bool { return p.Owned() == 10 }, "initial fill did not reach batch size")
	for i := 0; i < 4; i++ {
		release <- struct{}{}
	}
	waitFor(t, func() bool { return p.Executed() == 4 }, "4 tasks did not complete")
	time.Sleep(60 * time.Millisecond) // deficit 4 < threshold 5: no refetch
	if owned := p.Owned(); owned != 6 {
		t.Fatalf("owned = %d, want 6 (no refetch below threshold)", owned)
	}
	release <- struct{}{}
	waitFor(t, func() bool { return p.Owned() == 10 }, "refetch at threshold did not happen")
	for i := 0; i < 25; i++ {
		release <- struct{}{}
	}
	waitFor(t, func() bool { return p.Executed() >= 25 }, "pool stalled")
}

func TestEquitableSharingAcrossPools(t *testing.T) {
	// Two pools with batch size equal to workers share 200 tasks roughly
	// evenly — the starvation-prevention claim of §IV-D.
	db := newDB(t)
	ids := submitN(t, db, 1, 200)
	slowExec := func(payload string) (string, error) {
		time.Sleep(time.Millisecond)
		return "ok", nil
	}
	p1, _ := New(db, Config{Name: "a", Workers: 8, BatchSize: 8, WorkType: 1}, slowExec, nil)
	p2, _ := New(db, Config{Name: "b", Workers: 8, BatchSize: 8, WorkType: 1}, slowExec, nil)
	stop1 := runPool(t, p1)
	defer stop1()
	stop2 := runPool(t, p2)
	defer stop2()
	waitFor(t, func() bool { return p1.Executed()+p2.Executed() == len(ids) }, "pools did not drain queue")
	a, b := p1.Executed(), p2.Executed()
	if a == 0 || b == 0 {
		t.Fatalf("starvation: split %d/%d", a, b)
	}
	if a < len(ids)/5 || b < len(ids)/5 {
		t.Fatalf("grossly inequitable split %d/%d", a, b)
	}
}

func TestPoolCrashRequeue(t *testing.T) {
	// A pool dies holding tasks; RequeueRunning recovers them and a fresh
	// pool completes the workload (fault-tolerance claim, §IV-B/§II-B1c).
	db := newDB(t)
	ids := submitN(t, db, 1, 20)
	hang := make(chan struct{})
	hungExec := func(payload string) (string, error) {
		<-hang
		return "never", nil
	}
	crash, _ := New(db, Config{Name: "crashy", Workers: 4, BatchSize: 8, WorkType: 1}, hungExec, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); crash.Run(ctx) }()
	waitFor(t, func() bool { return crash.Owned() >= 4 }, "crashy pool never took tasks")
	cancel() // simulated crash: workers hang, pool is killed
	close(hang)
	<-done

	requeued, err := db.RequeueRunning(bg, "crashy")
	if err != nil || requeued.Count == 0 {
		t.Fatalf("RequeueRunning = %d, %v", requeued.Count, err)
	}
	fresh, _ := New(db, Config{Name: "fresh", Workers: 4, BatchSize: 8, WorkType: 1}, echoExec, nil)
	stop := runPool(t, fresh)
	defer stop()
	got := 0
	for got < len(ids) {
		results, err := resultsOf(db.PopResults(within(t, waitMax), ids, len(ids)))
		if err != nil {
			t.Fatalf("PopResults after requeue: %v (have %d)", err, got)
		}
		got += len(results)
	}
}

func TestPoolTaskError(t *testing.T) {
	db := newDB(t)
	id, _ := idOf(db.Submit(bg, "e", 1, "bad"))
	exec := func(payload string) (string, error) { return "", errors.New("exec exploded") }
	p, _ := New(db, Config{Name: "p", Workers: 1, WorkType: 1}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	res, err := resultOf(db.QueryResult(within(t, waitMax), id))
	if err != nil {
		t.Fatalf("QueryResult: %v", err)
	}
	if !strings.Contains(res, "exec exploded") {
		t.Fatalf("error result = %q", res)
	}
	waitFor(t, func() bool { return p.Failed() == 1 }, "Failed counter not incremented")
}

func TestPoolTelemetry(t *testing.T) {
	db := newDB(t)
	submitN(t, db, 1, 10)
	rec := telemetry.NewRecorder(1)
	p, _ := New(db, Config{Name: "p", Workers: 2, WorkType: 1}, echoExec, rec)
	stop := runPool(t, p)
	waitFor(t, func() bool { return p.Executed() == 10 }, "tasks incomplete")
	stop()
	var starts, ends, poolStarts int
	for _, e := range rec.Events() {
		switch e.Kind {
		case telemetry.TaskStart:
			starts++
		case telemetry.TaskEnd:
			ends++
		case telemetry.PoolStart:
			poolStarts++
		}
	}
	if starts != 10 || ends != 10 || poolStarts != 1 {
		t.Fatalf("telemetry: starts=%d ends=%d poolStarts=%d", starts, ends, poolStarts)
	}
	series := rec.ConcurrencySeries("p")
	for _, pt := range series.Points {
		if pt.V < 0 || pt.V > 2 {
			t.Fatalf("concurrency %v out of [0, workers] range", pt.V)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	db := newDB(t)
	if _, err := New(db, Config{}, echoExec, nil); err == nil {
		t.Fatal("missing name must error")
	}
	if _, err := New(db, Config{Name: "p", BatchSize: 2, Threshold: 5}, echoExec, nil); err == nil {
		t.Fatal("threshold > batch must error")
	}
	if _, err := New(nil, Config{Name: "p"}, echoExec, nil); err == nil {
		t.Fatal("nil api must error")
	}
	if _, err := New(db, Config{Name: "p"}, nil, nil); err == nil {
		t.Fatal("nil exec must error")
	}
	p, err := New(db, Config{Name: "p"}, echoExec, nil)
	if err != nil {
		t.Fatalf("minimal config: %v", err)
	}
	if p.cfg.Workers != 1 || p.cfg.BatchSize != 1 || p.cfg.Threshold != 1 {
		t.Fatalf("defaults = %+v", p.cfg)
	}
}

func TestPoolRunningFlag(t *testing.T) {
	db := newDB(t)
	p, _ := New(db, Config{Name: "p", WorkType: 1}, echoExec, nil)
	if p.Running() {
		t.Fatal("Running before Run")
	}
	stop := runPool(t, p)
	waitFor(t, func() bool { return p.Running() }, "Running flag not set")
	stop()
	waitFor(t, func() bool { return !p.Running() }, "Running flag not cleared")
}

func TestJSONCores(t *testing.T) {
	if JSONCores(`{"cores": 4}`) != 4 {
		t.Fatal("cores field not parsed")
	}
	if JSONCores(`{"x": 1}`) != 1 || JSONCores("not json") != 1 || JSONCores(`{"cores": -2}`) != 1 {
		t.Fatal("defaults wrong")
	}
}

func TestMultiCoreTaskOccupiesSlots(t *testing.T) {
	// A 4-core task on a 4-worker pool runs alone: while it holds all
	// cores, single-core tasks cannot start (§II-B1a MPI tasks).
	db := newDB(t)
	bigRunning := make(chan struct{})
	releaseBig := make(chan struct{})
	var smallStarted atomic.Int32
	exec := func(payload string) (string, error) {
		if JSONCores(payload) == 4 {
			close(bigRunning)
			<-releaseBig
			return "big-done", nil
		}
		smallStarted.Add(1)
		return "small-done", nil
	}
	p, err := New(db, Config{
		Name: "mpi", Workers: 4, BatchSize: 8, WorkType: 1, CoresOf: JSONCores,
	}, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := runPool(t, p)
	defer stop()

	bigID, _ := idOf(db.Submit(bg, "e", 1, `{"cores": 4}`, core.WithPriority(10)))
	var smallIDs []int64
	for i := 0; i < 4; i++ {
		id, _ := idOf(db.Submit(bg, "e", 1, `{"cores": 1}`))
		smallIDs = append(smallIDs, id)
	}
	<-bigRunning
	time.Sleep(50 * time.Millisecond)
	if n := smallStarted.Load(); n != 0 {
		t.Fatalf("%d single-core tasks ran while the 4-core task held all cores", n)
	}
	close(releaseBig)
	if res, err := resultOf(db.QueryResult(within(t, waitMax), bigID)); err != nil || res != "big-done" {
		t.Fatalf("big result = %q, %v", res, err)
	}
	done := 0
	for done < len(smallIDs) {
		results, err := resultsOf(db.PopResults(within(t, waitMax), smallIDs, 4))
		if err != nil {
			t.Fatalf("small tasks: %v", err)
		}
		done += len(results)
	}
}

func TestMultiCoreClampedToPoolSize(t *testing.T) {
	// A task demanding more cores than the pool has is clamped, not
	// deadlocked.
	db := newDB(t)
	id, _ := idOf(db.Submit(bg, "e", 1, `{"cores": 64}`))
	p, _ := New(db, Config{Name: "small", Workers: 2, WorkType: 1, CoresOf: JSONCores},
		func(string) (string, error) { return "ok", nil }, nil)
	stop := runPool(t, p)
	defer stop()
	if res, err := resultOf(db.QueryResult(within(t, waitMax), id)); err != nil || res != "ok" {
		t.Fatalf("oversized task = %q, %v", res, err)
	}
}

func TestMixedCoreThroughput(t *testing.T) {
	// Mixed 1- and 2-core tasks all complete and total concurrent core
	// usage never exceeds Workers.
	db := newDB(t)
	var curCores, peakCores atomic.Int32
	exec := func(payload string) (string, error) {
		k := int32(JSONCores(payload))
		n := curCores.Add(k)
		for {
			old := peakCores.Load()
			if n <= old || peakCores.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		curCores.Add(-k)
		return "ok", nil
	}
	p, _ := New(db, Config{Name: "mix", Workers: 4, BatchSize: 8, WorkType: 1, CoresOf: JSONCores}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	var ids []int64
	for i := 0; i < 30; i++ {
		payload := `{"cores": 1}`
		if i%3 == 0 {
			payload = `{"cores": 2}`
		}
		id, _ := idOf(db.Submit(bg, "e", 1, payload))
		ids = append(ids, id)
	}
	done := 0
	for done < len(ids) {
		results, err := resultsOf(db.PopResults(within(t, waitMax), ids, len(ids)))
		if err != nil {
			t.Fatalf("drain: %v (done %d)", err, done)
		}
		done += len(results)
	}
	if peak := peakCores.Load(); peak > 4 {
		t.Fatalf("peak core usage %d exceeds 4 workers", peak)
	}
}

// endedStream is a watch stream that has already ended.
type endedStream struct{ ch chan []watch.Event }

func newEndedStream() endedStream {
	s := endedStream{ch: make(chan []watch.Event)}
	close(s.ch)
	return s
}

func (s endedStream) Events() <-chan []watch.Event { return s.ch }
func (s endedStream) Err() error                   { return watch.ErrReset }
func (s endedStream) Close() error                 { return nil }

// resubscribeFails is a backend whose first subscription ends at once and
// whose resubscribe stops the pool and fails, the way a Watch on a cancelled
// context does: (nil, err).
type resubscribeFails struct {
	*core.DB
	watches atomic.Int32
	stop    context.CancelFunc
}

func (b *resubscribeFails) Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error) {
	if b.watches.Add(1) == 1 {
		return newEndedStream(), nil
	}
	b.stop()
	return nil, context.Canceled
}

// firstWatchFails is a backend whose first subscription attempt fails with a
// transient, non-context error — one dial error at pool start — and whose
// later attempts reach the real database.
type firstWatchFails struct {
	*core.DB
	watches atomic.Int32
}

func (b *firstWatchFails) Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error) {
	if b.watches.Add(1) == 1 {
		return nil, errors.New("dial tcp: connection refused")
	}
	return b.DB.Watch(ctx, q, buf)
}

// TestPoolRetriesFailedSubscribe: there is no polling mode to degrade to, so
// a subscribe that fails while the pool's context is live is retried with
// backoff, and the pool then executes work like any other.
func TestPoolRetriesFailedSubscribe(t *testing.T) {
	backend := &firstWatchFails{DB: newDB(t)}
	p, err := New(backend, Config{Name: "p", WorkType: 1, Workers: 1}, echoExec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer runPool(t, p)()
	id, err := idOf(backend.Submit(bg, "e", 1, "after-retry"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := resultOf(backend.QueryResult(within(t, waitMax), id)); err != nil || res != "r:after-retry" {
		t.Fatalf("result = %q, %v", res, err)
	}
	if n := backend.watches.Load(); n != 2 {
		t.Fatalf("backend saw %d Watch calls, want the failed subscribe and its retry", n)
	}
}

// TestPoolStopDuringResubscribe: a pool stopped while its fetch loop is
// resubscribing an ended watch stream shuts down cleanly. The failed Watch
// leaves no stream behind, and the loop's deferred close used to call Close
// on that nil one.
func TestPoolStopDuringResubscribe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	backend := &resubscribeFails{DB: newDB(t), stop: cancel}
	p, err := New(backend, Config{Name: "p", WorkType: 1, Workers: 1}, echoExec, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(waitMax):
		t.Fatal("pool did not shut down")
	}
	if n := backend.watches.Load(); n != 2 {
		t.Fatalf("backend saw %d Watch calls, want the subscription and one resubscribe", n)
	}
}
