package replica

import (
	"context"
	"errors"
	"testing"
	"time"

	"osprey/internal/core"
)

// newSoloLeader returns an unstarted leader node: commits append to its WAL
// and acks can be stepped directly, which gives tests exact control over
// which indexes are quorum-replicated.
func newSoloLeader(t *testing.T, quorum int) *Node {
	t.Helper()
	n, err := New(Config{
		ID: "solo", WriteQuorum: quorum,
		Heartbeat: beat, ElectionTimeout: elect,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestWaitQuorumIndexExact is the regression test for the PR-2 over-wait:
// WaitQuorum waited on the newest applied index at call time, so a write
// whose own entry had replicated could still fail because a *later*
// concurrent entry missed quorum. With per-request commit tokens the earlier
// quorum-acked write succeeds while the later one misses quorum — both
// entries already in the log before either wait begins, the exact
// interleaving the old code got wrong.
func TestWaitQuorumIndexExact(t *testing.T) {
	n := newSoloLeader(t, 1)
	admit(t, n, "f1")

	resA, err := n.DB().Submit(context.Background(), "exact", 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	resB, err := n.DB().Submit(context.Background(), "exact", 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	tokA, tokB := resA.Token, resB.Token
	if tokA == 0 || tokB <= tokA {
		t.Fatalf("tokens not monotonically assigned: a=%d b=%d", tokA, tokB)
	}

	// Both entries are appended; now a follower acknowledges only A's.
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() { errA <- n.WaitQuorumIndex(tokA) }()
	go func() { errB <- n.WaitQuorumIndex(tokB) }()
	stepAck(t, n, "f1", tokA)

	select {
	case err := <-errA:
		if err != nil {
			t.Fatalf("WaitQuorumIndex(%d) after its own ack = %v, want nil: the over-wait is back", tokA, err)
		}
	case <-time.After(waitMax):
		t.Fatalf("WaitQuorumIndex(%d) still blocked although its own entry is acked", tokA)
	}
	if err := <-errB; !errors.Is(err, ErrQuorumTimeout) {
		t.Fatalf("WaitQuorumIndex(%d) with no ack = %v, want commit timeout", tokB, err)
	}

	// Once B's entry is acknowledged too, its wait succeeds.
	stepAck(t, n, "f1", tokB)
	if err := n.WaitQuorumIndex(tokB); err != nil {
		t.Fatalf("WaitQuorumIndex(%d) after ack: %v", tokB, err)
	}
}

// TestWaitQuorumIndexZeroToken: token 0 (a write that produced no log entry,
// or an async-mode cluster) never blocks.
func TestWaitQuorumIndexZeroToken(t *testing.T) {
	n := newSoloLeader(t, 1)
	if err := n.WaitQuorumIndex(0); err != nil {
		t.Fatalf("WaitQuorumIndex(0) = %v, want nil", err)
	}
	async := newNode(t, "async-tok", 1, "")
	defer async.Close()
	if err := async.WaitQuorumIndex(42); err != nil {
		t.Fatalf("WaitQuorumIndex on async node = %v, want nil", err)
	}
}

// TestWaitApplied: the follower-side freshness wait behind token-bounded
// reads — satisfied immediately at or below the applied index, woken by the
// next apply, and ErrStale once the bound cannot be met in time.
func TestWaitApplied(t *testing.T) {
	n := newSoloLeader(t, 0)
	xres, err := n.DB().Submit(context.Background(), "applied", 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	tok := xres.Token
	if err := n.WaitApplied(tok, 0); err != nil {
		t.Fatalf("WaitApplied(%d) at applied index: %v", tok, err)
	}

	// Zero timeout checks once: a bound ahead of the replica fails now.
	if err := n.WaitApplied(tok+1, 0); !errors.Is(err, ErrStale) {
		t.Fatalf("WaitApplied(%d, 0) = %v, want ErrStale", tok+1, err)
	}
	if err := n.WaitApplied(tok+1, 30*time.Millisecond); !errors.Is(err, ErrStale) {
		t.Fatalf("WaitApplied(%d, 30ms) = %v, want ErrStale", tok+1, err)
	}

	// A waiter blocked on a future index is woken by the commit that
	// reaches it.
	done := make(chan error, 1)
	go func() { done <- n.WaitApplied(tok+1, waitMax) }()
	time.Sleep(5 * time.Millisecond)
	if _, err := n.DB().Submit(context.Background(), "applied", 1, "y"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitApplied woken by commit: %v", err)
		}
	case <-time.After(waitMax):
		t.Fatal("WaitApplied never woke although the index was reached")
	}
}

// TestForcePromoteTwoNodeCluster: the operator escape hatch. A 2-node
// cluster cannot fail over automatically (the survivor is 1 of 2, not a
// majority — asserted first), but a forced promotion overrides the gate and
// restores a writable leader.
func TestForcePromoteTwoNodeCluster(t *testing.T) {
	n1 := newNode(t, "fp1", 2, "")
	n2 := newNode(t, "fp2", 1, n1.Addr())
	defer n2.Close()
	waitFor(t, "membership", func() bool { return len(n1.Peers()) == 2 && len(n2.Peers()) == 2 })

	if _, err := n1.DB().Submit(context.Background(), "fp", 1, "before-kill"); err != nil {
		t.Fatal(err)
	}
	orig, err := n1.DB().Submit(context.Background(), "fp", 1, "keyed", core.WithDedupKey("fp-key"))
	if err != nil {
		t.Fatal(err)
	}
	origID, origTok := orig.ID, orig.Token
	waitFor(t, "replication", func() bool { return n2.Applied() == n1.Applied() && n2.Applied() > 0 })

	n1.Close()
	// The survivor must NOT self-promote: give it several election windows.
	time.Sleep(6 * elect)
	if n2.IsLeader() {
		t.Fatal("survivor of a 2-node cluster promoted itself past the majority gate")
	}

	if err := n2.ForcePromote(); err != nil {
		t.Fatalf("ForcePromote: %v", err)
	}
	waitFor(t, "forced leadership", func() bool { return n2.IsLeader() })
	if err := n2.ForcePromote(); err != nil {
		t.Fatalf("ForcePromote on a leader should be idempotent: %v", err)
	}

	// Regression: the new leader saw the keyed write only through log replay
	// (no local commit has happened here yet), and a dedup retry must still
	// return the original id with a covering (non-zero) token — replayed
	// entries seed the engine's commit high-water mark.
	retry, err := n2.DB().Submit(context.Background(), "fp", 1, "keyed", core.WithDedupKey("fp-key"))
	if err != nil || retry.ID != origID {
		t.Fatalf("dedup retry on replay-built leader = (%d, %v), want original id %d", retry.ID, err, origID)
	}
	if retry.Token == 0 || retry.Token < origTok {
		t.Fatalf("dedup retry token %d does not cover the original entry %d — quorum waits and read-your-writes would silently skip it", retry.Token, origTok)
	}

	// The forced leader accepts writes and retains the replicated state.
	if _, err := n2.DB().Submit(context.Background(), "fp", 1, "after-promote"); err != nil {
		t.Fatalf("write on force-promoted leader: %v", err)
	}
	counts, err := n2.DB().Counts(context.Background(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != 3 {
		t.Fatalf("forced leader has counts %v, want 3 queued", counts)
	}
}

// TestCloseReleasesParkedWaits: a WaitApplied and a WaitQuorumIndex parked
// on a node return ErrClosed as soon as the node closes, not at their
// timeouts.
func TestCloseReleasesParkedWaits(t *testing.T) {
	n, err := New(Config{
		ID: "closing", WriteQuorum: 1,
		Heartbeat: beat, ElectionTimeout: elect,
		LeaseTimeout: time.Minute, // the quorum wait times out after 2 minutes
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetServiceAddr("svc-closing")
	n.Start()
	waitFor(t, "leadership", n.IsLeader)
	submitN(t, n.DB(), 1)
	idx := n.Applied() // applied, never quorum-committed: the node has no follower

	applied := make(chan error, 1)
	quorum := make(chan error, 1)
	go func() { applied <- n.WaitApplied(idx+1, time.Minute) }()
	go func() { quorum <- n.WaitQuorumIndex(idx) }()
	waitFor(t, "the quorum waiter to park", func() bool { return n.quorumWaiters.Load() == 1 })
	time.Sleep(20 * time.Millisecond) // let the WaitApplied caller park too
	start := time.Now()
	n.Close()
	for what, ch := range map[string]chan error{"WaitApplied": applied, "WaitQuorumIndex": quorum} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("%s on a closing node = %v, want ErrClosed", what, err)
			}
		case <-time.After(waitMax):
			t.Fatalf("a parked %s was not released by Close", what)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("the waits returned %v after Close", el)
	}
}
