package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/pool"
)

const (
	tick    = 5 * time.Millisecond
	waitMax = 3 * time.Second
)

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
func idsOf(r core.BatchRes, err error) ([]int64, error)                 { return r.IDs, err }
func tasksOf(r core.TasksRes, err error) ([]core.Task, error)           { return r.Tasks, err }
func resultOf(r core.ResultRes, err error) (string, error)              { return r.Result, err }
func resultsOf(r core.ResultsRes, err error) ([]core.TaskResult, error) { return r.Results, err }
func countOf(r core.CountRes, err error) (int, error)                   { return r.Count, err }

func newServerClient(t *testing.T) (*core.DB, *Client) {
	t.Helper()
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		db.Close()
	})
	return db, c
}

func TestPing(t *testing.T) {
	_, c := newServerClient(t)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestRemoteSubmitQueryReport(t *testing.T) {
	_, c := newServerClient(t)
	id, err := idOf(c.Submit(bg, "exp", 1, `{"x": [1, 2]}`, core.WithPriority(4), core.WithTags("remote")))
	if err != nil {
		t.Fatalf("SubmitTask: %v", err)
	}
	tasks, err := tasksOf(c.QueryTasks(within(t, waitMax), 1, 1, "remote-pool"))
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	if len(tasks) != 1 || tasks[0].ID != id || tasks[0].Payload != `{"x": [1, 2]}` ||
		tasks[0].Priority != 4 || tasks[0].Pool != "remote-pool" {
		t.Fatalf("tasks = %+v", tasks)
	}
	if _, err := c.Report(bg, id, 1, "r"); err != nil {
		t.Fatalf("ReportTask: %v", err)
	}
	res, err := resultOf(c.QueryResult(within(t, waitMax), id))
	if err != nil || res != "r" {
		t.Fatalf("QueryResult = %q, %v", res, err)
	}
	tags, err := c.Tags(bg, id)
	if err != nil || len(tags) != 1 || tags[0] != "remote" {
		t.Fatalf("Tags = %v, %v", tags, err)
	}
}

func TestRemoteTimeoutMapsToErrTimeout(t *testing.T) {
	_, c := newServerClient(t)
	_, err := c.QueryTasks(within(t, 50*time.Millisecond), 1, 1, "p")
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want core.ErrTimeout", err)
	}
	if _, err := c.QueryResult(within(t, 50*time.Millisecond), 99); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("QueryResult err = %v", err)
	}
}

func TestRemoteBatchOps(t *testing.T) {
	_, c := newServerClient(t)
	var ids []int64
	for i := 0; i < 5; i++ {
		id, _ := idOf(c.Submit(bg, "e", 1, fmt.Sprint(i)))
		ids = append(ids, id)
	}
	sts, err := c.Statuses(bg, ids)
	if err != nil || len(sts) != 5 {
		t.Fatalf("Statuses = %v, %v", sts, err)
	}
	n, err := countOf(c.UpdatePriorities(bg, ids, []int{5, 4, 3, 2, 1}))
	if err != nil || n != 5 {
		t.Fatalf("UpdatePriorities = %d, %v", n, err)
	}
	prios, err := c.Priorities(bg, ids)
	if err != nil || prios[ids[0]] != 5 {
		t.Fatalf("Priorities = %v, %v", prios, err)
	}
	nc, err := countOf(c.CancelTasks(bg, ids[3:]))
	if err != nil || nc != 2 {
		t.Fatalf("CancelTasks = %d, %v", nc, err)
	}
	counts, err := c.Counts(bg, "e")
	if err != nil || counts[core.StatusCanceled] != 2 || counts[core.StatusQueued] != 3 {
		t.Fatalf("Counts = %v, %v", counts, err)
	}
}

func TestRemotePopResults(t *testing.T) {
	db, c := newServerClient(t)
	var ids []int64
	for i := 0; i < 3; i++ {
		id, _ := idOf(c.Submit(bg, "e", 1, "x"))
		ids = append(ids, id)
	}
	qctx, qcancel := context.WithTimeout(context.Background(), waitMax)
	popped, _ := db.QueryTasks(qctx, 1, 3, "p")
	qcancel()
	for _, task := range popped.Tasks {
		db.Report(context.Background(), task.ID, 1, fmt.Sprintf("res-%d", task.ID))
	}
	results, err := resultsOf(c.PopResults(within(t, waitMax), ids, 10))
	if err != nil || len(results) != 3 {
		t.Fatalf("PopResults = %v, %v", results, err)
	}
	for _, r := range results {
		if r.Result != fmt.Sprintf("res-%d", r.ID) {
			t.Fatalf("result = %+v", r)
		}
	}
}

func TestRemoteRequeue(t *testing.T) {
	_, c := newServerClient(t)
	c.Submit(bg, "e", 1, "x")
	if _, err := c.QueryTasks(within(t, waitMax), 1, 1, "dead-pool"); err != nil {
		t.Fatal(err)
	}
	n, err := countOf(c.RequeueRunning(bg, "dead-pool"))
	if err != nil || n != 1 {
		t.Fatalf("RequeueRunning = %d, %v", n, err)
	}
}

func TestWorkerPoolOverService(t *testing.T) {
	// A worker pool running against the remote client — the paper's
	// cross-resource deployment — completes tasks submitted by another
	// client.
	_, me := newServerClient(t)
	_, poolClient := newServerClient2(t, me)

	p, err := pool.New(poolClient, pool.Config{Name: "svc-pool", Workers: 3, WorkType: 1},
		func(payload string) (string, error) { return "done:" + payload, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	var ids []int64
	for i := 0; i < 10; i++ {
		id, err := idOf(me.Submit(bg, "e", 1, fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	got := 0
	for got < len(ids) {
		results, err := resultsOf(me.PopResults(within(t, waitMax), ids, len(ids)))
		if err != nil {
			t.Fatalf("PopResults: %v (have %d)", err, got)
		}
		got += len(results)
	}
}

// newServerClient2 dials a second client against the same server as c.
func newServerClient2(t *testing.T, c *Client) (*Client, *Client) { //nolint:unparam
	t.Helper()
	c2, err := Dial(c.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	return c, c2
}

func TestConcurrentClients(t *testing.T) {
	db, c := newServerClient(t)
	_ = db
	var clients []*Client
	for i := 0; i < 4; i++ {
		ci, err := Dial(c.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer ci.Close()
		clients = append(clients, ci)
	}
	var wg sync.WaitGroup
	for i, ci := range clients {
		wg.Add(1)
		go func(i int, ci *Client) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := ci.Submit(context.Background(), "e", 1, fmt.Sprintf("%d-%d", i, j)); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(i, ci)
	}
	wg.Wait()
	counts, err := c.Counts(bg, "e")
	if err != nil || counts[core.StatusQueued] != 100 {
		t.Fatalf("counts = %v, %v", counts, err)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newServerClient(t)
	// Unknown op via raw round trip.
	if _, err := c.write(bg, time.Second, request{Op: "explode"}); err == nil {
		t.Fatal("unknown op must error")
	}
	// Report for a nonexistent task surfaces the DB error.
	if _, err := c.Report(bg, 424242, 1, "x"); err == nil {
		t.Fatal("report unknown task must error")
	}
}

func TestDialContextWaitsForService(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Reserve an address, start serving only after a delay.
	srvCh := make(chan *Server, 1)
	addrCh := make(chan string, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv, err := Serve(db, "127.0.0.1:0")
		if err != nil {
			return
		}
		addrCh <- srv.Addr()
		srvCh <- srv
	}()
	// We do not know the port until it binds, so dial the real address with
	// a context that outlives the startup delay.
	addr := <-addrCh
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	c, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatalf("DialContext: %v", err)
	}
	c.Close()
	(<-srvCh).Close()

	// Unreachable address times out.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err := DialContext(ctx2, "127.0.0.1:1"); err == nil {
		t.Fatal("DialContext to dead address must fail")
	}
}

func TestLargePayload(t *testing.T) {
	_, c := newServerClient(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = 'a' + byte(i%26)
	}
	id, err := idOf(c.Submit(bg, "e", 1, string(big)))
	if err != nil {
		t.Fatalf("submit 1MB payload: %v", err)
	}
	tasks, err := tasksOf(c.QueryTasks(within(t, waitMax), 1, 1, "p"))
	if err != nil || tasks[0].ID != id || tasks[0].Payload != string(big) {
		t.Fatalf("large payload round trip failed: %v", err)
	}
}

func TestRemoteSubmitBatch(t *testing.T) {
	_, c := newServerClient(t)
	payloads := make([]string, 100)
	for i := range payloads {
		payloads[i] = fmt.Sprintf(`{"i": %d}`, i)
	}
	ids, err := idsOf(c.SubmitBatch(bg, "batch", 1, payloads, []int{3}, nil))
	if err != nil || len(ids) != 100 {
		t.Fatalf("SubmitTasks = %d ids, %v", len(ids), err)
	}
	counts, _ := c.Counts(bg, "batch")
	if counts[core.StatusQueued] != 100 {
		t.Fatalf("counts = %v", counts)
	}
	tasks, err := tasksOf(c.QueryTasks(within(t, waitMax), 1, 1, "p"))
	if err != nil || tasks[0].Priority != 3 {
		t.Fatalf("first pop = %+v, %v", tasks, err)
	}
}
