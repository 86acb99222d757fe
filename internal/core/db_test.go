package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

const (
	tick    = 5 * time.Millisecond
	waitMax = 2 * time.Second
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB()
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// The assertions below call the Session surface directly; these shorthands
// only supply the context and project a result struct onto the one field a
// test compares (the commit tokens have their own tests in session_test.go).
var bg = context.Background()

// within returns a context that expires after d, the polling calls' timeout.
// It is released when the test ends.
func within(t testing.TB, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func idOf(r SubmitRes, err error) (int64, error)              { return r.ID, err }
func idsOf(r BatchRes, err error) ([]int64, error)            { return r.IDs, err }
func tasksOf(r TasksRes, err error) ([]Task, error)           { return r.Tasks, err }
func resultOf(r ResultRes, err error) (string, error)         { return r.Result, err }
func resultsOf(r ResultsRes, err error) ([]TaskResult, error) { return r.Results, err }
func countOf(r CountRes, err error) (int, error)              { return r.Count, err }

func TestSubmitAndPop(t *testing.T) {
	db := newTestDB(t)
	id, err := idOf(db.Submit(bg, "exp1", 1, `{"x": 1}`))
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	if id != 1 {
		t.Fatalf("task id = %d, want 1", id)
	}
	tasks, err := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "poolA"))
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	if len(tasks) != 1 || tasks[0].ID != id || tasks[0].Payload != `{"x": 1}` {
		t.Fatalf("tasks = %+v", tasks)
	}
	if tasks[0].Status != StatusRunning || tasks[0].Pool != "poolA" {
		t.Fatalf("popped task state = %+v", tasks[0])
	}
	got, err := db.GetTask(bg, id)
	if err != nil || got.Status != StatusRunning {
		t.Fatalf("GetTask = %+v, %v", got, err)
	}
}

func TestPriorityOrder(t *testing.T) {
	db := newTestDB(t)
	low, _ := idOf(db.Submit(bg, "e", 1, "low", WithPriority(1)))
	high, _ := idOf(db.Submit(bg, "e", 1, "high", WithPriority(10)))
	mid, _ := idOf(db.Submit(bg, "e", 1, "mid", WithPriority(5)))
	tasks, err := tasksOf(db.QueryTasks(within(t, waitMax), 1, 3, "p"))
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	if len(tasks) != 3 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	wantOrder := []int64{high, mid, low}
	for i, task := range tasks {
		if task.ID != wantOrder[i] {
			t.Fatalf("pop order = %v, want %v", []int64{tasks[0].ID, tasks[1].ID, tasks[2].ID}, wantOrder)
		}
	}
}

func TestPriorityTieBreaksByTaskID(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 5; i++ {
		id, _ := idOf(db.Submit(bg, "e", 1, fmt.Sprint(i)))
		ids = append(ids, id)
	}
	tasks, err := tasksOf(db.QueryTasks(within(t, waitMax), 1, 5, "p"))
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	for i, task := range tasks {
		if task.ID != ids[i] {
			t.Fatalf("FIFO order violated at %d: %+v", i, tasks)
		}
	}
}

func TestWorkTypeIsolation(t *testing.T) {
	db := newTestDB(t)
	db.Submit(bg, "e", 1, "sim")
	gpuID, _ := idOf(db.Submit(bg, "e", 2, "gpu"))
	tasks, err := tasksOf(db.QueryTasks(within(t, waitMax), 2, 5, "gpu-pool"))
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	if len(tasks) != 1 || tasks[0].ID != gpuID {
		t.Fatalf("work-type filter broken: %+v", tasks)
	}
}

func TestQueryTimeout(t *testing.T) {
	db := newTestDB(t)
	start := time.Now()
	_, err := db.QueryTasks(within(t, 50*time.Millisecond), 1, 1, "p")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("returned too early: %v", elapsed)
	}
}

func TestReportAndQueryResult(t *testing.T) {
	db := newTestDB(t)
	id, _ := idOf(db.Submit(bg, "e", 1, "payload"))
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "p"))
	if _, err := db.Report(bg, tasks[0].ID, 1, `{"y": 2}`); err != nil {
		t.Fatalf("ReportTask: %v", err)
	}
	res, err := resultOf(db.QueryResult(within(t, waitMax), id))
	if err != nil {
		t.Fatalf("QueryResult: %v", err)
	}
	if res != `{"y": 2}` {
		t.Fatalf("result = %q", res)
	}
	got, _ := db.GetTask(bg, id)
	if got.Status != StatusComplete {
		t.Fatalf("status = %s, want complete", got.Status)
	}
	if got.Stopped.Before(got.Started) {
		t.Fatalf("stop %v before start %v", got.Stopped, got.Started)
	}
	// Result is popped: second query times out.
	if _, err := db.QueryResult(within(t, 30*time.Millisecond), id); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second QueryResult err = %v, want timeout", err)
	}
}

func TestQueryResultBlocksUntilReport(t *testing.T) {
	db := newTestDB(t)
	id, _ := idOf(db.Submit(bg, "e", 1, "p"))
	done := make(chan string, 1)
	go func() {
		res, err := resultOf(db.QueryResult(within(t, waitMax), id))
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- res
	}()
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "p"))
	time.Sleep(10 * time.Millisecond)
	db.Report(bg, tasks[0].ID, 1, "answer")
	select {
	case res := <-done:
		if res != "answer" {
			t.Fatalf("result = %q", res)
		}
	case <-time.After(waitMax):
		t.Fatal("QueryResult never returned")
	}
}

func TestPopResultsBatch(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 6; i++ {
		id, _ := idOf(db.Submit(bg, "e", 1, fmt.Sprint(i)))
		ids = append(ids, id)
	}
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 6, "p"))
	for _, task := range tasks[:4] {
		db.Report(bg, task.ID, 1, fmt.Sprintf("r%d", task.ID))
	}
	results, err := resultsOf(db.PopResults(within(t, waitMax), ids, 3))
	if err != nil {
		t.Fatalf("PopResults: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (max)", len(results))
	}
	results2, err := resultsOf(db.PopResults(within(t, waitMax), ids, 10))
	if err != nil {
		t.Fatalf("PopResults 2: %v", err)
	}
	if len(results2) != 1 {
		t.Fatalf("got %d more results, want 1", len(results2))
	}
	for _, r := range append(results, results2...) {
		if r.Result != fmt.Sprintf("r%d", r.ID) {
			t.Fatalf("mismatched result %+v", r)
		}
	}
}

func TestPopResultsIgnoresForeignTasks(t *testing.T) {
	db := newTestDB(t)
	mine, _ := idOf(db.Submit(bg, "e", 1, "m"))
	other, _ := idOf(db.Submit(bg, "e", 1, "o"))
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 2, "p"))
	for _, task := range tasks {
		db.Report(bg, task.ID, 1, "done")
	}
	results, err := resultsOf(db.PopResults(within(t, waitMax), []int64{mine}, 5))
	if err != nil || len(results) != 1 || results[0].ID != mine {
		t.Fatalf("PopResults = %+v, %v", results, err)
	}
	// The other result is still poppable.
	results, err = resultsOf(db.PopResults(within(t, waitMax), []int64{other}, 5))
	if err != nil || len(results) != 1 || results[0].ID != other {
		t.Fatalf("other result = %+v, %v", results, err)
	}
}

func TestStatusesAndCounts(t *testing.T) {
	db := newTestDB(t)
	a, _ := idOf(db.Submit(bg, "e", 1, "a"))
	b, _ := idOf(db.Submit(bg, "e", 1, "b"))
	c, _ := idOf(db.Submit(bg, "other", 1, "c"))
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "p"))
	db.Report(bg, tasks[0].ID, 1, "done")
	sts, err := db.Statuses(bg, []int64{a, b, c, 999})
	if err != nil {
		t.Fatalf("Statuses: %v", err)
	}
	if len(sts) != 3 {
		t.Fatalf("statuses = %v (missing ids must be absent)", sts)
	}
	if sts[a] != StatusComplete || sts[b] != StatusQueued {
		t.Fatalf("statuses = %v", sts)
	}
	counts, err := db.Counts(bg, "e")
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if counts[StatusComplete] != 1 || counts[StatusQueued] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	all, _ := db.Counts(bg, "")
	if all[StatusQueued] != 2 {
		t.Fatalf("all counts = %v", all)
	}
}

func TestUpdatePriorities(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 4; i++ {
		id, _ := idOf(db.Submit(bg, "e", 1, fmt.Sprint(i)))
		ids = append(ids, id)
	}
	// Pop one so it is no longer eligible.
	popped, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "p"))
	n, err := countOf(db.UpdatePriorities(bg, ids, []int{40, 10, 30, 20}))
	if err != nil {
		t.Fatalf("UpdatePriorities: %v", err)
	}
	if n != 3 {
		t.Fatalf("updated %d, want 3 (one task already running)", n)
	}
	prios, _ := db.Priorities(bg, ids)
	if len(prios) != 3 {
		t.Fatalf("priorities = %v", prios)
	}
	if prios[ids[2]] != 30 {
		t.Fatalf("priorities = %v", prios)
	}
	// Remaining tasks pop in the new order.
	rest, err := tasksOf(db.QueryTasks(within(t, waitMax), 1, 3, "p"))
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	want := []int64{ids[2], ids[3], ids[1]}
	if popped[0].ID == ids[0] {
		// ids[0] was popped first (FIFO), rest sorted 30, 20, 10.
		for i, task := range rest {
			if task.ID != want[i] {
				t.Fatalf("order after reprio = %v, want %v",
					[]int64{rest[0].ID, rest[1].ID, rest[2].ID}, want)
			}
		}
	}
}

func TestUpdatePrioritiesSingleValue(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 3; i++ {
		id, _ := idOf(db.Submit(bg, "e", 1, "x"))
		ids = append(ids, id)
	}
	n, err := countOf(db.UpdatePriorities(bg, ids, []int{7}))
	if err != nil || n != 3 {
		t.Fatalf("UpdatePriorities = %d, %v", n, err)
	}
	prios, _ := db.Priorities(bg, ids)
	for _, id := range ids {
		if prios[id] != 7 {
			t.Fatalf("prios = %v", prios)
		}
	}
	if _, err := db.UpdatePriorities(bg, ids, []int{1, 2}); err == nil {
		t.Fatal("mismatched priority slice length must error")
	}
}

func TestCancelTasks(t *testing.T) {
	db := newTestDB(t)
	a, _ := idOf(db.Submit(bg, "e", 1, "a"))
	b, _ := idOf(db.Submit(bg, "e", 1, "b"))
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "p"))
	n, err := countOf(db.CancelTasks(bg, []int64{a, b}))
	if err != nil {
		t.Fatalf("CancelTasks: %v", err)
	}
	if n != 1 {
		t.Fatalf("canceled %d, want 1 (task %d already running)", n, tasks[0].ID)
	}
	st, _ := db.Statuses(bg, []int64{a, b})
	if st[tasks[0].ID] != StatusRunning {
		t.Fatalf("running task was canceled: %v", st)
	}
	var canceledID int64 = a
	if tasks[0].ID == a {
		canceledID = b
	}
	if st[canceledID] != StatusCanceled {
		t.Fatalf("statuses = %v", st)
	}
	// Canceled task is not poppable.
	if _, err := db.QueryTasks(within(t, 30*time.Millisecond), 1, 1, "p"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("canceled task still in queue: %v", err)
	}
}

func TestRequeueRunning(t *testing.T) {
	db := newTestDB(t)
	id, _ := idOf(db.Submit(bg, "e", 1, "x", WithPriority(42)))
	if _, err := db.QueryTasks(within(t, waitMax), 1, 1, "crashed-pool"); err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	n, err := countOf(db.RequeueRunning(bg, "crashed-pool"))
	if err != nil || n != 1 {
		t.Fatalf("RequeueRunning = %d, %v", n, err)
	}
	tasks, err := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "fresh-pool"))
	if err != nil {
		t.Fatalf("re-pop: %v", err)
	}
	if tasks[0].ID != id || tasks[0].Priority != 42 {
		t.Fatalf("requeued task = %+v (priority must survive)", tasks[0])
	}
	// Completed tasks are not requeued.
	db.Report(bg, id, 1, "done")
	n, _ = countOf(db.RequeueRunning(bg, "fresh-pool"))
	if n != 0 {
		t.Fatalf("requeued %d completed tasks", n)
	}
}

func TestTags(t *testing.T) {
	db := newTestDB(t)
	id, _ := idOf(db.Submit(bg, "e", 1, "x", WithTags("gpr", "round-1")))
	tags, err := db.Tags(bg, id)
	if err != nil {
		t.Fatalf("Tags: %v", err)
	}
	if len(tags) != 2 || tags[0] != "gpr" || tags[1] != "round-1" {
		t.Fatalf("tags = %v", tags)
	}
	other, _ := idOf(db.Submit(bg, "e", 1, "y"))
	tags, _ = db.Tags(bg, other)
	if len(tags) != 0 {
		t.Fatalf("untagged task has tags %v", tags)
	}
}

func TestConcurrentPoolsNoDuplicatePop(t *testing.T) {
	db := newTestDB(t)
	const nTasks = 200
	for i := 0; i < nTasks; i++ {
		db.Submit(bg, "e", 1, fmt.Sprint(i))
	}
	var mu sync.Mutex
	seen := make(map[int64]string)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pool := fmt.Sprintf("pool%d", p)
			for {
				tasks, err := tasksOf(db.QueryTasks(within(t, 100*time.Millisecond), 1, 5, pool))
				if errors.Is(err, ErrTimeout) {
					return
				}
				if err != nil {
					t.Errorf("QueryTasks: %v", err)
					return
				}
				mu.Lock()
				for _, task := range tasks {
					if prev, dup := seen[task.ID]; dup {
						t.Errorf("task %d popped by both %s and %s", task.ID, prev, pool)
					}
					seen[task.ID] = pool
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if len(seen) != nTasks {
		t.Fatalf("popped %d unique tasks, want %d", len(seen), nTasks)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryTasks(within(t, time.Minute), 1, 1, "p")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	db.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(waitMax):
		t.Fatal("Close did not wake waiter")
	}
	if _, err := db.Submit(bg, "e", 1, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestSnapshotRestoreWorkflowState(t *testing.T) {
	db := newTestDB(t)
	a, _ := idOf(db.Submit(bg, "e", 1, "a", WithPriority(3)))
	b, _ := idOf(db.Submit(bg, "e", 1, "b"))
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 1, "p"))
	db.Report(bg, tasks[0].ID, 1, "done")

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	db2, err := RestoreDB(&buf)
	if err != nil {
		t.Fatalf("RestoreDB: %v", err)
	}
	defer db2.Close()
	st, _ := db2.Statuses(bg, []int64{a, b})
	if st[tasks[0].ID] != StatusComplete {
		t.Fatalf("restored statuses = %v", st)
	}
	// Result still poppable, remaining task still queued, ids keep counting.
	if res, err := resultOf(db2.QueryResult(within(t, waitMax), tasks[0].ID)); err != nil || res != "done" {
		t.Fatalf("restored result = %q, %v", res, err)
	}
	rest, err := tasksOf(db2.QueryTasks(within(t, waitMax), 1, 5, "p2"))
	if err != nil || len(rest) != 1 {
		t.Fatalf("restored queue pop = %+v, %v", rest, err)
	}
	id3, _ := idOf(db2.Submit(bg, "e", 1, "c"))
	if id3 != 3 {
		t.Fatalf("id after restore = %d, want 3", id3)
	}
}

func TestReportUnknownTask(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Report(bg, 12345, 1, "x"); err == nil {
		t.Fatal("reporting an unknown task must error")
	}
}

func TestQueryTasksValidatesN(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.QueryTasks(within(t, tick), 1, 0, "p"); err == nil {
		t.Fatal("n=0 must error")
	}
}

// Property: for any set of priorities, popping all tasks yields them in
// non-increasing priority order with ids ascending within equal priorities.
func TestPropertyPopOrdering(t *testing.T) {
	f := func(prios []int8) bool {
		if len(prios) == 0 {
			return true
		}
		if len(prios) > 64 {
			prios = prios[:64]
		}
		db, err := NewDB()
		if err != nil {
			return false
		}
		defer db.Close()
		for i, p := range prios {
			if _, err := db.Submit(bg, "e", 1, fmt.Sprint(i), WithPriority(int(p))); err != nil {
				return false
			}
		}
		tasks, err := tasksOf(db.QueryTasks(within(t, waitMax), 1, len(prios), "p"))
		if err != nil || len(tasks) != len(prios) {
			return false
		}
		for i := 1; i < len(tasks); i++ {
			if tasks[i].Priority > tasks[i-1].Priority {
				return false
			}
			if tasks[i].Priority == tasks[i-1].Priority && tasks[i].ID < tasks[i-1].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every submitted task is eventually either completed exactly once
// or still queued — no loss, no duplication — under concurrent pop/report.
func TestPropertyConservation(t *testing.T) {
	db := newTestDB(t)
	const n = 120
	ids := make([]int64, n)
	for i := range ids {
		ids[i], _ = idOf(db.Submit(bg, "e", 1, fmt.Sprint(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := fmt.Sprintf("w%d", w)
			for {
				tasks, err := tasksOf(db.QueryTasks(within(t, 100*time.Millisecond), 1, 3, pool))
				if err != nil {
					return
				}
				for _, task := range tasks {
					if _, err := db.Report(bg, task.ID, 1, "ok"); err != nil {
						t.Errorf("report: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	counts, _ := db.Counts(bg, "e")
	if counts[StatusComplete] != n {
		t.Fatalf("counts = %v, want %d complete", counts, n)
	}
	results, err := resultsOf(db.PopResults(within(t, waitMax), ids, n))
	if err != nil || len(results) != n {
		t.Fatalf("PopResults got %d results, err %v", len(results), err)
	}
}

func TestSubmitTasksBatch(t *testing.T) {
	db := newTestDB(t)
	ids, err := idsOf(db.SubmitBatch(bg, "e", 1, []string{"a", "b", "c"}, nil, nil))
	if err != nil || len(ids) != 3 {
		t.Fatalf("SubmitTasks = %v, %v", ids, err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("ids not consecutive: %v", ids)
		}
	}
	tasks, err := tasksOf(db.QueryTasks(within(t, waitMax), 1, 3, "p"))
	if err != nil || len(tasks) != 3 {
		t.Fatalf("QueryTasks after batch = %d, %v", len(tasks), err)
	}
	if tasks[0].Payload != "a" || tasks[2].Payload != "c" {
		t.Fatalf("payload order = %v %v %v", tasks[0].Payload, tasks[1].Payload, tasks[2].Payload)
	}
}

func TestSubmitTasksBatchPriorities(t *testing.T) {
	db := newTestDB(t)
	// Per-task priorities apply.
	ids, err := idsOf(db.SubmitBatch(bg, "e", 1, []string{"low", "high"}, []int{1, 9}, nil))
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := tasksOf(db.QueryTasks(within(t, waitMax), 1, 2, "p"))
	if tasks[0].ID != ids[1] {
		t.Fatalf("priority order wrong: %+v", tasks)
	}
	// Single priority broadcasts.
	ids2, err := idsOf(db.SubmitBatch(bg, "e", 1, []string{"x", "y"}, []int{5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	prios, _ := db.Priorities(bg, ids2)
	if prios[ids2[0]] != 5 || prios[ids2[1]] != 5 {
		t.Fatalf("broadcast priorities = %v", prios)
	}
	// Mismatched length errors.
	if _, err := db.SubmitBatch(bg, "e", 1, []string{"x", "y"}, []int{1, 2, 3}, nil); err == nil {
		t.Fatal("mismatched priorities must error")
	}
	// Empty batch is a no-op.
	if out, err := idsOf(db.SubmitBatch(bg, "e", 1, nil, nil, nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

func TestSubmitTasksBatchAtomicWithClose(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := db.SubmitBatch(bg, "e", 1, []string{"x"}, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v", err)
	}
}

// TestCountsIsOneSnapshot: the four counts of one Counts call are read in a
// single engine-lock hold, so a task that a concurrent pop moves from queued
// to running, or a report from running to complete, is counted once — every
// call's counts sum to the number of tasks submitted.
func TestCountsIsOneSnapshot(t *testing.T) {
	db := newTestDB(t)
	const n = 400
	if _, err := db.SubmitBatch(bg, "e", 1, make([]string, n), nil, nil); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// An expired deadline still gets one immediate attempt: the pop
			// never waits, and an empty queue ends the loop.
			ctx, cancel := context.WithDeadline(bg, time.Now())
			tasks, err := tasksOf(db.QueryTasks(ctx, 1, 1, "p"))
			cancel()
			if errors.Is(err, ErrTimeout) {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Report(bg, tasks[0].ID, 1, "r"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var bad error
	for calls, running := 0, true; running && bad == nil; calls++ {
		select {
		case <-done:
			running = false
		default:
		}
		counts, err := db.Counts(bg, "")
		sum := 0
		for _, c := range counts {
			sum += c
		}
		switch {
		case err != nil:
			bad = err
		case sum != n:
			bad = fmt.Errorf("call %d: counts %v sum to %d, want the %d tasks submitted", calls, counts, sum, n)
		}
	}
	close(stop)
	<-done
	if bad != nil {
		t.Fatal(bad)
	}
	if counts, _ := db.Counts(bg, ""); counts[StatusComplete] != n {
		t.Fatalf("after the run: %v, want all %d complete", counts, n)
	}
}
