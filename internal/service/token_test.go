package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
	"osprey/internal/replica"
)

// stallEngine seizes n's engine writer lock inside an open transaction,
// freezing log application (and therefore acks) on that node until the
// returned release func is called — a deterministic way to make one follower
// lag. It returns only after the lock is held.
func stallEngine(t *testing.T, n *replica.Node) (release func()) {
	t.Helper()
	locked := make(chan struct{})
	unblock := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.DB().Engine().TxLogged(func(tx *minisql.Tx) error {
			close(locked)
			<-unblock
			return nil
		})
	}()
	<-locked
	return func() {
		close(unblock)
		<-done
	}
}

// TestDuplicateSubmitAfterQuorumTimeout closes the retry-ambiguity gap: a
// submit that times out waiting for quorum HAS committed on the leader (and
// one follower) — the classic ambiguous failure — and a client retry with
// the same dedup key must resolve to that original task, not a duplicate.
func TestDuplicateSubmitAfterQuorumTimeout(t *testing.T) {
	n1, srv1 := startQuorumNode(t, "d1", 3, 2, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startQuorumNode(t, "d2", 2, 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startQuorumNode(t, "d3", 1, 2, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()
	waitCond(t, "membership converged", func() bool {
		return len(n1.Peers()) == 3 && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})
	// One warm-up write so both followers are provably streaming and acking.
	c, err := Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(bg, "warmup", 1, "w"); err != nil {
		t.Fatalf("warm-up quorum submit: %v", err)
	}

	// Freeze n3: with WriteQuorum 2 and only n2 acking, the next submit
	// commits locally and on n2 but cannot reach quorum.
	release := stallEngine(t, n3)
	id1, err := idOf(c.Submit(bg, "ambiguous", 1, "payload", core.WithDedupKey("retry-1")))
	if !errors.Is(err, ErrUnavailable) {
		release()
		t.Fatalf("submit with a frozen quorum = (%d, %v), want ErrUnavailable", id1, err)
	}
	// The ambiguity, demonstrated: the client got an error, yet the write is
	// committed on the leader.
	counts, err := n1.DB().Counts(context.Background(), "ambiguous")
	if err != nil {
		release()
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != 1 {
		release()
		t.Fatalf("leader counts after failed ack = %v, want the write locally committed", counts)
	}

	// Heal the cluster and retry with the same key.
	release()
	waitCond(t, "stalled follower caught up", func() bool {
		return n3.Applied() == n1.Applied() && n3.Applied() > 0
	})
	id2, err := idOf(c.Submit(bg, "ambiguous", 1, "payload", core.WithDedupKey("retry-1")))
	if err != nil {
		t.Fatalf("retried submit after heal: %v", err)
	}
	counts, err = n1.DB().Counts(context.Background(), "ambiguous")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != 1 {
		t.Fatalf("counts after retry = %v, want exactly 1 task — the retry duplicated the submit", counts)
	}
	task, err := n1.DB().GetTask(context.Background(), id2)
	if err != nil || task.Payload != "payload" {
		t.Fatalf("retried submit resolved to task %+v, %v", task, err)
	}
}

// TestFollowerReadsAndForcedPromotion: in a 2-node cluster the leader dies
// and automatic failover is (correctly) impossible — yet DialCluster reads
// keep answering from the surviving follower under the session token, and
// the operator's forced promotion (cluster_promote) restores write service
// with read-your-writes intact across the leader switch.
func TestFollowerReadsAndForcedPromotion(t *testing.T) {
	n1, srv1 := startClusterNode(t, "e1", 2, "")
	n2, srv2 := startClusterNode(t, "e2", 1, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()

	cc, err := DialCluster(srv1.Addr(), srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	id1, err := idOf(cc.Submit(bg, "escape", 1, "pre-kill"))
	if err != nil {
		t.Fatal(err)
	}
	if cc.Token() == 0 {
		t.Fatal("session token not advanced by an acknowledged submit")
	}
	waitCond(t, "replication", func() bool { return n2.Applied() == n1.Applied() && n2.Applied() > 0 })

	srv1.Close()
	n1.Close()

	// Leaderless for good (survivor is 1 of 2): reads must still answer,
	// served by the follower replica.
	task, err := cc.GetTask(context.Background(), id1)
	if err != nil || task.Payload != "pre-kill" {
		t.Fatalf("follower-served GetTask with no leader = %+v, %v", task, err)
	}
	sts, err := cc.Statuses(context.Background(), []int64{id1})
	if err != nil || sts[id1] != core.StatusQueued {
		t.Fatalf("follower-served Statuses with no leader = %v, %v", sts, err)
	}
	if n2.IsLeader() {
		t.Fatal("survivor self-promoted past the majority gate")
	}

	// Operator escape hatch over the wire.
	admin, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	info, err := admin.Promote()
	if err != nil {
		t.Fatalf("cluster_promote: %v", err)
	}
	if info.Role != "leader" || info.NodeID != "e2" {
		t.Fatalf("promote reply = %+v, want leader e2", info)
	}

	// Writes work again, and the session's read-your-writes holds across
	// the forced leader switch.
	id2, err := idOf(cc.Submit(bg, "escape", 1, "post-promote"))
	if err != nil {
		t.Fatalf("submit after forced promotion: %v", err)
	}
	task, err = cc.GetTask(context.Background(), id2)
	if err != nil || task.Payload != "post-promote" {
		t.Fatalf("read-your-writes after forced promotion = %+v, %v", task, err)
	}
}

// TestFollowerReadRoutingAcrossFailover is the read-scale-out acceptance
// scenario: a 3-node cluster loses its leader mid-session; reads keep
// succeeding throughout the election (served by follower replicas), and
// after the new leader emerges a fresh write is immediately visible to
// token-bounded follower reads — read-your-writes across the leader switch.
func TestFollowerReadRoutingAcrossFailover(t *testing.T) {
	n1, srv1 := startClusterNode(t, "f1", 3, "")
	n2, srv2 := startClusterNode(t, "f2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "f3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ids := make([]int64, 5)
	for i := range ids {
		id, err := idOf(cc.Submit(bg, "routing", 1, "p"))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	waitCond(t, "followers caught up", func() bool {
		return n2.Applied() == n1.Applied() && n3.Applied() == n1.Applied() && n1.Applied() > 0
	})
	waitCond(t, "membership converged", func() bool {
		return len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	srv1.Close()
	n1.Close()

	// Reads throughout the election window: none may fail. The loop spans
	// leader death to re-election, so at least its early iterations run with
	// no leader at all.
	reads := 0
	for !n2.IsLeader() {
		sts, err := cc.Statuses(context.Background(), ids)
		if err != nil {
			t.Fatalf("Statuses during election (read %d): %v", reads, err)
		}
		if len(sts) != len(ids) {
			t.Fatalf("Statuses during election returned %d entries, want %d", len(sts), len(ids))
		}
		if _, err := cc.GetTask(context.Background(), ids[reads%len(ids)]); err != nil {
			t.Fatalf("GetTask during election (read %d): %v", reads, err)
		}
		reads++
	}
	t.Logf("%d reads served during the election window", reads)

	// The reads were follower-served: the client holds open read
	// connections to followers (it never opens them for leader-pinned
	// traffic).
	cc.mu.Lock()
	openReaders := len(cc.readers)
	cc.mu.Unlock()
	if openReaders == 0 {
		t.Fatal("no follower read connections open — reads were not routed to followers")
	}

	// Read-your-writes across the leader switch: a write accepted by the new
	// leader is immediately visible to the session's follower reads.
	id, err := idOf(cc.Submit(bg, "routing", 1, "after-failover"))
	if err != nil {
		t.Fatalf("submit after failover: %v", err)
	}
	task, err := cc.GetTask(context.Background(), id)
	if err != nil || task.Payload != "after-failover" {
		t.Fatalf("token-bounded read after failover = %+v, %v", task, err)
	}
	sts, err := cc.Statuses(context.Background(), []int64{id})
	if err != nil || sts[id] != core.StatusQueued {
		t.Fatalf("Statuses after failover = %v, %v", sts, err)
	}
}

// TestReadYourWritesOnLaggingFollower: a follower frozen behind the session
// token cannot serve the read; within the staleness bound the client moves
// on (next follower, leader last) and still returns the fresh answer. The
// commit token is what makes the stale replica detectable at all.
func TestReadYourWritesOnLaggingFollower(t *testing.T) {
	n1, srv1 := startClusterNode(t, "g1", 3, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startClusterNode(t, "g2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "g3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()
	waitCond(t, "membership converged", func() bool {
		return len(n1.Peers()) == 3 && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	if _, err := cc.Submit(bg, "lag", 1, "warm"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "all applied", func() bool {
		return n2.Applied() == n1.Applied() && n3.Applied() == n1.Applied() && n1.Applied() > 0
	})

	release := stallEngine(t, n3)
	id, err := idOf(cc.Submit(bg, "lag", 1, "fresh"))
	if err != nil {
		release()
		t.Fatal(err)
	}
	// Two consecutive reads: round-robin makes them start at different
	// followers, so one of them begins at the frozen n3, times out against
	// the staleness bound (the read's deadline), and rotates to the caught-up
	// n2 — both must return the fresh write.
	for i := 0; i < 2; i++ {
		rctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
		task, err := cc.GetTask(rctx, id)
		cancel()
		if err != nil || task.Payload != "fresh" {
			release()
			t.Fatalf("read %d against a lagging follower = %+v, %v", i, task, err)
		}
	}
	release()
	waitCond(t, "stalled follower caught up", func() bool { return n3.Applied() == n1.Applied() })
	task, err := cc.GetTask(context.Background(), id)
	if err != nil || task.Payload != "fresh" {
		t.Fatalf("read after heal = %+v, %v", task, err)
	}
}
