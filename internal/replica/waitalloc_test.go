//go:build !race

// The race detector's sync.Pool drops a share of puts at random, so the
// allocation pins build without it.

package replica

import (
	"testing"
	"time"
)

// TestWaitQuorumIndexAllocatesNothing: a WaitQuorumIndex that blocks until
// the watermark reaches its entry waits on a pooled timer. The one
// allocation a round makes is the commit's replacement wake channel
// (commits.Wake); the wait itself allocates nothing (a fresh timer and a
// deferred Stop in the wait loop cost four more).
func TestWaitQuorumIndexAllocatesNothing(t *testing.T) {
	n, err := New(Config{
		ID: "q1", Priority: 3,
		Heartbeat: beat, ElectionTimeout: elect, WriteQuorum: 1,
		LeaseTimeout: time.Minute,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetServiceAddr("svc-q1")
	n.Start()
	waitFor(t, "leadership", n.IsLeader)
	submitN(t, n.DB(), 1)
	idx := n.Applied()

	// The committer stands in for a follower's ack: once the waiter is
	// parked it raises the watermark to idx and wakes the quorum waiters.
	arm := make(chan struct{})
	defer close(arm)
	go func() {
		for range arm {
			time.Sleep(500 * time.Microsecond)
			n.mu.Lock()
			n.st.committed = idx
			n.commits.Wake()
			n.mu.Unlock()
		}
	}()
	allocs := testing.AllocsPerRun(50, func() {
		arm <- struct{}{}
		if err := n.WaitQuorumIndex(idx); err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		n.st.committed = idx - 1
		n.mu.Unlock()
	})
	if allocs > 1 {
		t.Fatalf("blocking WaitQuorumIndex: %v allocs, want at most 1 (the commit's wake channel)", allocs)
	}
}
