package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/future"
	"osprey/internal/obs"
	"osprey/internal/pool"
	"osprey/internal/replica"
)

const (
	beat  = 10 * time.Millisecond
	elect = 60 * time.Millisecond
)

func startClusterNode(t *testing.T, id string, prio int, join string) (*replica.Node, *Server) {
	t.Helper()
	n, err := replica.New(replica.Config{
		ID: id, Priority: prio, Join: join,
		Heartbeat: beat, ElectionTimeout: elect,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("replica.New(%s): %v", id, err)
	}
	srv, err := ServeNode(n, "127.0.0.1:0")
	if err != nil {
		n.Close()
		t.Fatalf("ServeNode(%s): %v", id, err)
	}
	return n, srv
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitMax)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterFailover is the acceptance scenario: a 3-node cluster takes a
// workload through the leader, the leader is killed with client Result calls
// pending, the highest-priority follower is promoted within the failover
// window, and every completed task's result is still delivered — none are
// lost with the dead leader.
func TestClusterFailover(t *testing.T) {
	n1, srv1 := startClusterNode(t, "n1", 3, "")
	n2, srv2 := startClusterNode(t, "n2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "n3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()

	addrs := []string{srv1.Addr(), srv2.Addr(), srv3.Addr()}
	cc, err := DialCluster(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Submit through the leader via the failover-aware client.
	const total = 20
	futs := make([]*future.Future, total)
	for i := range futs {
		f, err := future.Submit(cc, "failover", 1, fmt.Sprint(i))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		futs[i] = f
	}

	// A worker pool drives the tasks to completion through its own
	// failover-aware connection.
	poolCC, err := DialCluster(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer poolCC.Close()
	p, err := pool.New(poolCC, pool.Config{Name: "fp", Workers: 4, BatchSize: 4, WorkType: 1},
		func(payload string) (string, error) { return "done:" + payload, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	poolCtx, poolCancel := context.WithCancel(context.Background())
	poolDone := make(chan struct{})
	go func() { defer close(poolDone); p.Run(poolCtx) }()

	waitCond(t, "all tasks complete", func() bool {
		counts, err := n1.DB().Counts(context.Background(), "failover")
		return err == nil && counts[core.StatusComplete] == total
	})
	poolCancel()
	<-poolDone

	// Every completed write must have replicated before we kill the leader:
	// asynchronous shipping means unshipped commits die with it.
	waitCond(t, "followers caught up", func() bool {
		return n2.Applied() == n1.Applied() && n3.Applied() == n1.Applied()
	})
	waitCond(t, "membership converged", func() bool {
		return len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	// Start collecting results; once some are in flight, kill the leader.
	results := make([]string, total)
	errs := make([]error, total)
	var started, collected sync.WaitGroup
	started.Add(total)
	collected.Add(total)
	for i, f := range futs {
		go func(i int, f *future.Future) {
			defer collected.Done()
			started.Done()
			results[i], errs[i] = f.Result(20 * time.Second)
		}(i, f)
	}
	started.Wait()

	killedAt := time.Now()
	srv1.Close()
	n1.Close()

	// The highest-priority follower must take over within the failover
	// window: stream-loss detection (bounded by the 2x election-timeout read
	// deadline) plus its instant rank-0 self-promotion.
	waitCond(t, "n2 promotion", func() bool { return n2.IsLeader() })
	if d := time.Since(killedAt); d > 10*elect {
		t.Fatalf("failover took %v, want < %v", d, 10*elect)
	}
	if n3.IsLeader() {
		t.Fatal("n3 promoted alongside n2")
	}

	// Every pending Result call completes against the new leader.
	collected.Wait()
	for i := range futs {
		if errs[i] != nil {
			t.Fatalf("Result(%d) after failover: %v", i, errs[i])
		}
		if want := "done:" + fmt.Sprint(i); results[i] != want {
			t.Fatalf("Result(%d) = %q, want %q", i, results[i], want)
		}
	}

	// No completed tasks were lost: the new leader's replica has all of them.
	counts, err := cc.Counts(context.Background(), "failover")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusComplete] != total {
		t.Fatalf("counts after failover = %v, want %d complete", counts, total)
	}

	// A write through a follower is refused with the new leader's address,
	// and the write lands once sent there.
	waitCond(t, "n3 to learn the new leader", func() bool { return n3.LeaderServiceAddr() == srv2.Addr() })
	folClient, err := Dial(srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer folClient.Close()
	_, err = folClient.Submit(bg, "failover", 1, "via-follower")
	hinted, err := Dial(redirectTo(t, srv2.Addr(), err))
	if err != nil {
		t.Fatal(err)
	}
	defer hinted.Close()
	id, err := idOf(hinted.Submit(bg, "failover", 1, "via-follower"))
	if err != nil {
		t.Fatalf("submit at the hinted leader: %v", err)
	}
	waitCond(t, "redirected write replicated", func() bool { return n3.Applied() == n2.Applied() })
	task, err := n3.DB().GetTask(context.Background(), id)
	if err != nil || task.Payload != "via-follower" {
		t.Fatalf("redirected task on follower replica: %+v, %v", task, err)
	}

	// The failover client now reports the new leader.
	info, err := cc.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if info.NodeID != "n2" || info.Role != "leader" {
		t.Fatalf("cluster info after failover = %+v, want leader n2", info)
	}
}

// redirectTo returns the leader address a follower's refusal named, failing
// the test unless err is that refusal: an ErrUnavailable whose message names
// leader.
func redirectTo(t *testing.T, leader string, err error) string {
	t.Helper()
	var r *redirectError
	if !errors.Is(err, ErrUnavailable) || !errors.As(err, &r) ||
		r.leader != leader || !strings.Contains(err.Error(), leader) {
		t.Fatalf("got %v; want ErrUnavailable redirecting to the leader at %s", err, leader)
	}
	return r.leader
}

// TestFollowerRedirectsLeaderOnlyOps: a follower answers every leader-only op
// — the writes, the pops and a strong read — with ErrUnavailable naming the
// leader, and executes nothing: no state changes on either node, and the
// follower opens no connection to the leader's service port.
func TestFollowerRedirectsLeaderOnlyOps(t *testing.T) {
	n1, srv1 := startClusterNode(t, "rd1", 2, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startClusterNode(t, "rd2", 1, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()

	// Set up on the leader's database directly, so no client ever connects
	// to the leader's service port: one task running, one queued.
	ids, err := idsOf(n1.DB().SubmitBatch(bg, "redirect", 1, []string{"a", "b"}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	popped, err := tasksOf(n1.DB().QueryTasks(within(t, waitMax), 1, 1, "pool"))
	if err != nil || len(popped) != 1 {
		t.Fatalf("pop on the leader = %v, %v", popped, err)
	}
	running, queued := ids[0], ids[1]
	if popped[0].ID != running {
		running, queued = queued, running
	}
	waitCond(t, "follower caught up and knows the leader", func() bool {
		return n2.Applied() == n1.Applied() && n2.LeaderServiceAddr() == srv1.Addr()
	})
	state := func() string {
		var out []string
		for _, n := range []*replica.Node{n1, n2} {
			counts, err := n.DB().Counts(bg, "redirect")
			if err != nil {
				t.Fatal(err)
			}
			prios, err := n.DB().Priorities(bg, ids)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(counts, prios))
		}
		return strings.Join(out, " | ")
	}
	conns := func() float64 {
		return obs.Flatten(srv1.met.reg.Gather())["osprey_service_open_connections"]
	}
	before, connsBefore := state(), conns()

	c, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(bg, waitMax)
	defer cancel()
	calls := map[string]func() error{
		"Submit": func() error { _, err := c.Submit(ctx, "redirect", 1, "c"); return err },
		"QueryTasks": func() error {
			_, err := c.QueryTasks(ctx, 1, 1, "pool")
			return err
		},
		"Report": func() error { _, err := c.Report(ctx, running, 1, "r"); return err },
		"UpdatePriorities": func() error {
			_, err := c.UpdatePriorities(ctx, []int64{queued}, []int{9})
			return err
		},
		"Strong Statuses": func() error {
			_, err := c.Statuses(ctx, ids, core.Strong())
			return err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) { redirectTo(t, srv1.Addr(), call()) })
	}
	if after := state(); after != before {
		t.Fatalf("redirected ops changed state:\n before %s\n after  %s", before, after)
	}
	if got := conns(); got != connsBefore {
		t.Fatalf("leader open connections %v -> %v: the follower relayed", connsBefore, got)
	}
}

// TestDialClusterLeaderless: DialCluster fails only when no node is
// reachable. A 2-node cluster that lost its leader cannot elect one (the
// survivor is 1 of 2), yet dialing the survivor succeeds with the membership
// learned and no leader connection; reads are served by the survivor, and a
// write surfaces ErrUnavailable once FailTimeout runs out.
func TestDialClusterLeaderless(t *testing.T) {
	n1, srv1 := startClusterNode(t, "ll1", 2, "")
	n2, srv2 := startClusterNode(t, "ll2", 1, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	id, err := idOf(n1.DB().Submit(bg, "leaderless", 1, "p"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "replication", func() bool { return n2.Applied() == n1.Applied() })
	srv1.Close()
	n1.Close()

	cc, err := DialCluster(srv2.Addr())
	if err != nil {
		t.Fatalf("DialCluster(survivor) = %v; want success while nodes answer", err)
	}
	defer cc.Close()
	cc.mu.Lock()
	peers, conn := len(cc.peers), cc.c
	cc.mu.Unlock()
	if peers == 0 || conn != nil {
		t.Fatalf("after a leaderless dial: %d peers, leader connection open %t; want peers learned, none open", peers, conn != nil)
	}
	sts, err := cc.Statuses(bg, []int64{id}, core.Eventual())
	if err != nil || sts[id] != core.StatusQueued {
		t.Fatalf("eventual read on the survivor = %v, %v; want queued", sts, err)
	}
	cc.FailTimeout = 100 * time.Millisecond
	if _, err := cc.Submit(bg, "leaderless", 1, "q"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Submit with no leader = %v; want ErrUnavailable", err)
	}
	if n2.IsLeader() {
		t.Fatal("survivor self-promoted past the majority gate")
	}
}

// TestDialClusterStandalone: the failover client must work unchanged against
// a plain single-node service.
func TestDialClusterStandalone(t *testing.T) {
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
	id, err := idOf(cc.Submit(bg, "solo", 1, "p"))
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := tasksOf(cc.QueryTasks(within(t, waitMax), 1, 1, "pool"))
	if err != nil || len(tasks) != 1 || tasks[0].ID != id {
		t.Fatalf("QueryTasks = %v, %v", tasks, err)
	}
	if _, err := cc.Report(bg, id, 1, "r"); err != nil {
		t.Fatal(err)
	}
	res, err := resultOf(cc.QueryResult(within(t, waitMax), id))
	if err != nil || res != "r" {
		t.Fatalf("QueryResult = %q, %v", res, err)
	}
}

// TestFollowerServesReadsLocally: reads on a follower answer from the local
// replica even when the leader is gone (no redirect).
func TestFollowerServesReadsLocally(t *testing.T) {
	n1, srv1 := startClusterNode(t, "r1", 2, "")
	n2, srv2 := startClusterNode(t, "r2", 1, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()

	leaderClient, err := Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	id, err := idOf(leaderClient.Submit(bg, "reads", 1, "x", core.WithTags("t1")))
	if err != nil {
		t.Fatal(err)
	}
	leaderClient.Close()
	waitCond(t, "replication", func() bool { return n2.Applied() == n1.Applied() })

	// Cut the leader; local reads on the follower still work while the
	// election is running.
	srv1.Close()
	n1.Close()

	folClient, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer folClient.Close()
	sts, err := folClient.Statuses(context.Background(), []int64{id})
	if err != nil || sts[id] != core.StatusQueued {
		t.Fatalf("follower Statuses = %v, %v", sts, err)
	}
	tags, err := folClient.Tags(context.Background(), id)
	if err != nil || len(tags) != 1 || tags[0] != "t1" {
		t.Fatalf("follower Tags = %v, %v", tags, err)
	}
	counts, err := folClient.Counts(context.Background(), "reads")
	if err != nil || counts[core.StatusQueued] != 1 {
		t.Fatalf("follower Counts = %v, %v", counts, err)
	}
}
