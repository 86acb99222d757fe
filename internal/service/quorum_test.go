package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/replica"
)

// startQuorumNode is startClusterNode with a write quorum: writes are
// acknowledged only after `quorum` followers applied them.
func startQuorumNode(t *testing.T, id string, prio, quorum int, join string) (*replica.Node, *Server) {
	t.Helper()
	n, err := replica.New(replica.Config{
		ID: id, Priority: prio, Join: join, WriteQuorum: quorum,
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

// TestQuorumWriteSurvivesLeaderKill is the synchronous-replication
// acceptance scenario: every submit acknowledged by a WriteQuorum:1 cluster
// is already on at least one follower, and the log-aware election promotes a
// survivor that has it — so killing the leader immediately after the last
// ack loses nothing. No "followers caught up" wait before the kill: the ack
// itself is the guarantee.
func TestQuorumWriteSurvivesLeaderKill(t *testing.T) {
	n1, srv1 := startQuorumNode(t, "q1", 3, 1, "")
	n2, srv2 := startQuorumNode(t, "q2", 2, 1, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startQuorumNode(t, "q3", 1, 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()

	// Followers must be streaming before quorum writes can be acknowledged.
	waitCond(t, "membership converged", func() bool {
		return len(n1.Peers()) == 3 && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	const total = 10
	for i := 0; i < total; i++ {
		if _, err := cc.Submit(bg, "quorum", 1, fmt.Sprint(i)); err != nil {
			t.Fatalf("quorum submit %d: %v", i, err)
		}
	}

	// Kill the leader the instant the last submit returns.
	srv1.Close()
	n1.Close()

	waitCond(t, "new leader elected", func() bool { return n2.IsLeader() || n3.IsLeader() })
	newLeader := n2
	if n3.IsLeader() {
		newLeader = n3
	}
	counts, err := newLeader.DB().Counts(context.Background(), "quorum")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != total {
		t.Fatalf("new leader has %v, want all %d acknowledged submits — a quorum write was lost", counts, total)
	}

	// The failover client keeps working against the new leader.
	counts, err = cc.Counts(context.Background(), "quorum")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != total {
		t.Fatalf("cluster client sees %v after failover, want %d queued", counts, total)
	}
}

// TestAsyncAckWindowStillExists contrasts the two modes in the same
// degenerate topology (leader whose only follower just died):
// asynchronous mode acknowledges the write anyway — the loss window the
// quorum mode closes — while quorum mode refuses with ErrUnavailable rather
// than acknowledge a write that cannot replicate.
func TestAsyncAckWindowStillExists(t *testing.T) {
	t.Run("async acknowledges unreplicated write", func(t *testing.T) {
		n1, srv1 := startClusterNode(t, "a1", 2, "")
		defer func() { srv1.Close(); n1.Close() }()
		n2, srv2 := startClusterNode(t, "a2", 1, n1.Addr())
		waitCond(t, "follower joined", func() bool { return len(n1.Peers()) == 2 })
		srv2.Close()
		n2.Close()

		c, err := Dial(srv1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Acknowledged with zero live followers: were the leader to die now,
		// this write would be gone. WriteQuorum: 0 preserves exactly the old
		// asynchronous semantics.
		if _, err := c.Submit(bg, "window", 1, "doomed"); err != nil {
			t.Fatalf("async submit after follower death: %v", err)
		}
	})

	t.Run("quorum refuses unreplicated write", func(t *testing.T) {
		n1, srv1 := startQuorumNode(t, "w1", 2, 1, "")
		defer func() { srv1.Close(); n1.Close() }()
		n2, srv2 := startQuorumNode(t, "w2", 1, 1, n1.Addr())
		waitCond(t, "follower joined", func() bool { return len(n1.Peers()) == 2 })
		srv2.Close()
		n2.Close()

		c, err := Dial(srv1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Submit(bg, "window", 1, "refused"); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("quorum submit after follower death = %v, want ErrUnavailable", err)
		}
	})
}

// TestMinorityLeaderDemotesAndRejectsWrites: a leader cut off from the
// majority of its membership steps down within the lease window and answers
// writes with ErrUnavailable, so failover clients re-resolve instead of
// feeding a zombie.
func TestMinorityLeaderDemotesAndRejectsWrites(t *testing.T) {
	n1, srv1 := startQuorumNode(t, "z1", 3, 1, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startQuorumNode(t, "z2", 2, 1, n1.Addr())
	n3, srv3 := startQuorumNode(t, "z3", 1, 1, n1.Addr())
	waitCond(t, "membership converged", func() bool { return len(n1.Peers()) == 3 })

	// Sever the leader from the rest of its cluster. From z1's side this is
	// indistinguishable from a partition: the majority has gone silent.
	cut := time.Now()
	srv2.Close()
	n2.Close()
	srv3.Close()
	n3.Close()

	waitCond(t, "leader demotion", func() bool { return !n1.IsLeader() })
	// Default lease window is 2 election timeouts; allow detection slack.
	if d := time.Since(cut); d > 8*elect {
		t.Fatalf("demotion took %v, want about 2 election timeouts", d)
	}

	c, err := Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(bg, "zombie", 1, "doomed"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write on demoted leader = %v, want ErrUnavailable", err)
	}

	info, err := c.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "follower" {
		t.Fatalf("demoted node reports role %q, want follower", info.Role)
	}
}

// TestQuorumZeroPreservesAsyncSemantics: a WriteQuorum:0 cluster node never
// holds a write for replication — a solo leader with no followers at all
// acknowledges immediately, exactly as before this mode existed.
func TestQuorumZeroPreservesAsyncSemantics(t *testing.T) {
	n1, srv1 := startClusterNode(t, "s1", 1, "")
	defer func() { srv1.Close(); n1.Close() }()

	c, err := Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	id, err := idOf(c.Submit(bg, "solo", 1, "p"))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > elect {
		t.Fatalf("async submit took %v — it must not wait on replication", d)
	}
	sts, err := c.Statuses(context.Background(), []int64{id})
	if err != nil || sts[id] != core.StatusQueued {
		t.Fatalf("Statuses = %v, %v", sts, err)
	}
}
