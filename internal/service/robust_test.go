package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
)

// TestOverloadErrorMapping pins the wire contract of the two refusal kinds:
// a shed request maps to ErrOverloaded (retry the SAME node after backoff —
// it is healthy, just saturated) and a draining/transient refusal maps to
// ErrUnavailable (fail over to another node).
func TestOverloadErrorMapping(t *testing.T) {
	err := respErr(&response{OK: false, Overloaded: true, Error: "service: overloaded"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded response mapped to %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("ErrOverloaded must not satisfy ErrUnavailable: failover clients would leave a healthy node")
	}
	err = respErr(&response{OK: false, Transient: true, Error: "service: draining"})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("transient response mapped to %v, want ErrUnavailable", err)
	}
}

// TestOverloadShedsAndPipelinedCallersRecover saturates a server whose
// admission limit is a single in-flight request: a long poll occupies the
// only slot while a crowd of pipelined callers hammers submits on one shared
// connection. The server must shed (counter proves it), and every caller
// must still succeed — the client's full-jitter backoff retries shed
// requests transparently, and a shed request never executed so the resend is
// safe.
func TestOverloadShedsAndPipelinedCallersRecover(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0", WithMaxInflight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Occupy the single admission slot with a server-side long poll. Work
	// type 7 never matches the submits below (pool is advisory, not a
	// filter), so the poll holds the slot for its entire window.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
		defer cancel()
		c.QueryTasks(ctx, 7, 1, "empty-pool")
	}()
	waitCond(t, "poll occupying the admission slot", func() bool { return srv.inflight.Load() > 0 })

	const workers, per = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := c.Submit(ctx, "load", 0, fmt.Sprintf("w%d-%d", w, i))
				cancel()
				if err != nil {
					errs <- fmt.Errorf("worker %d submit %d: %w", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("pipelined caller failed under overload: %v", err)
	}
	<-pollDone
	if shed := srv.met.shed.Value(); shed == 0 {
		t.Fatal("server never shed a request: the schedule did not exercise admission control")
	} else {
		t.Logf("server shed %d requests; all %d submits succeeded via backoff", shed, workers*per)
	}
	counts, err := db.Counts(context.Background(), "load")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != workers*per {
		t.Fatalf("server holds %v tasks, want %d: a shed submit executed anyway or a retry double-submitted",
			counts, workers*per)
	}
}

// TestDrainRefusesNewFinishesInflight is the graceful-shutdown contract on a
// standalone server: once draining, new data-plane requests are refused with
// a transient error (failover clients re-resolve), the in-flight request
// runs to completion, and Drain reports a clean finish.
func TestDrainRefusesNewFinishesInflight(t *testing.T) {
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
	if _, err := c.Submit(context.Background(), "pre", 0, "before-drain"); err != nil {
		t.Fatalf("submit before drain: %v", err)
	}

	// One in-flight long poll that must be allowed to finish its budget.
	// Work type 7 has no queued tasks (pool is advisory, not a filter), so
	// the poll blocks server-side for its whole 600ms window.
	pollErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
		defer cancel()
		_, err := c.QueryTasks(ctx, 7, 1, "empty-pool")
		pollErr <- err
	}()
	waitCond(t, "poll in flight", func() bool { return srv.inflight.Load() > 0 })

	clean := make(chan bool, 1)
	go func() { clean <- srv.Drain(5 * time.Second) }()
	waitCond(t, "server draining", func() bool { return srv.draining.Load() })

	// New work on the existing pipelined connection is refused transiently.
	if _, err := c.Submit(context.Background(), "post", 0, "during-drain"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("submit during drain returned %v, want ErrUnavailable", err)
	}
	// The in-flight poll ran its full server-side budget (ErrTimeout on an
	// empty pool), not an abort.
	if err := <-pollErr; !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("in-flight poll ended with %v, want its natural ErrTimeout", err)
	}
	if !<-clean {
		t.Fatal("Drain reported an unclean finish despite all in-flight work completing")
	}
}

// TestDrainingLeaderHandsOffLeadership drains the leader of a 3-node quorum
// cluster: the drain must finish in-flight work, step the leader down, and a
// follower must take over — the failover client keeps submitting across the
// handoff.
func TestDrainingLeaderHandsOffLeadership(t *testing.T) {
	n1, srv1 := startQuorumNode(t, "d1", 3, 1, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startQuorumNode(t, "d2", 2, 1, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startQuorumNode(t, "d3", 1, 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()
	waitCond(t, "membership converged", func() bool {
		return len(n1.Peers()) == 3 && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := 0; i < 5; i++ {
		if _, err := cc.Submit(context.Background(), "drain", 0, fmt.Sprint(i)); err != nil {
			t.Fatalf("submit %d before drain: %v", i, err)
		}
	}

	if !srv1.Drain(5 * time.Second) {
		t.Fatal("leader drain did not finish cleanly")
	}
	if n1.IsLeader() {
		t.Fatal("drained leader still claims leadership: StepDown did not run")
	}
	waitCond(t, "follower took over", func() bool { return n2.IsLeader() || n3.IsLeader() })

	// The failover client rides the handoff: the drained node's address is
	// dead, the new leader answers.
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	if _, err := cc.Submit(ctx, "drain", 0, "after-handoff"); err != nil {
		t.Fatalf("submit after leader drain: %v", err)
	}
}
