package service

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/pool"
)

// TestServiceRestartMidWorkflow exercises the paper's restart
// fault-tolerance path end to end (§II-B1c): a workflow is interrupted by
// a full service + database shutdown; the database snapshot is restored
// behind a new service on a different port; tasks stuck "running" on the
// dead pool are requeued; a new pool drains the backlog and the ME side
// collects every result.
func TestServiceRestartMidWorkflow(t *testing.T) {
	db1, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := Serve(db1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	me1, err := Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Submit 30 tasks; a slow pool completes some of them.
	const total = 30
	ids := make([]int64, total)
	for i := range ids {
		ids[i], err = idOf(me1.Submit(bg, "restart", 1, fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	poolClient, err := Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	slow := func(payload string) (string, error) {
		time.Sleep(5 * time.Millisecond)
		return "done:" + payload, nil
	}
	p1, err := pool.New(poolClient, pool.Config{Name: "pool-v1", Workers: 2, BatchSize: 4, WorkType: 1}, slow, nil)
	if err != nil {
		t.Fatal(err)
	}
	poolCtx, poolCancel := context.WithCancel(context.Background())
	poolDone := make(chan struct{})
	go func() { defer close(poolDone); p1.Run(poolCtx) }()

	// Let part of the workload complete, then crash everything.
	deadline := time.Now().Add(waitMax)
	for p1.Executed() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if p1.Executed() < 5 {
		t.Fatal("pool never made progress")
	}
	poolCancel()
	<-poolDone

	var snapshot bytes.Buffer
	if err := db1.Snapshot(&snapshot); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	me1.Close()
	poolClient.Close()
	srv1.Close()
	db1.Close()

	// Restore on "another resource".
	db2, err := core.RestoreDB(&snapshot)
	if err != nil {
		t.Fatalf("RestoreDB: %v", err)
	}
	defer db2.Close()
	srv2, err := Serve(db2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	me2, err := DialContext(ctx, srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer me2.Close()

	// Recover tasks the dead pool still owned.
	requeued, err := countOf(me2.RequeueRunning(bg, "pool-v1"))
	if err != nil {
		t.Fatalf("RequeueRunning: %v", err)
	}
	t.Logf("requeued %d tasks from the dead pool", requeued)

	poolClient2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer poolClient2.Close()
	p2, err := pool.New(poolClient2, pool.Config{Name: "pool-v2", Workers: 4, WorkType: 1},
		func(payload string) (string, error) { return "done:" + payload, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go p2.Run(ctx2)

	// Collect every result: completions from before the crash survived the
	// snapshot, and the rest arrive from the new pool.
	collected := 0
	for collected < total {
		results, err := resultsOf(me2.PopResults(within(t, waitMax), ids, total))
		if err != nil {
			t.Fatalf("PopResults after restart: %v (have %d/%d)", err, collected, total)
		}
		collected += len(results)
	}
	counts, err := me2.Counts(context.Background(), "restart")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusComplete] != total {
		t.Fatalf("counts after recovery = %v", counts)
	}
}
