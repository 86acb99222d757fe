package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"osprey/internal/core"
)

// TestReadYourPops is the regression test the Session redesign is defined
// by: a session pops a task on the leader and immediately reads the task's
// status through a follower replica — and observes `running`, never the
// pre-pop `queued`. Before pops moved to TxLogged and returned commit
// tokens, the pop left no trace in the session token, so a follower lagging
// by one entry could legally serve the stale state.
func TestReadYourPops(t *testing.T) {
	n1, srv1 := startClusterNode(t, "ryp1", 3, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startClusterNode(t, "ryp2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "ryp3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()
	waitCond(t, "membership converged", func() bool {
		return len(n1.Peers()) == 3 && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ctx := context.Background()

	// Repeat the pop-then-read cycle: round-robin spreads the reads over
	// both followers, so a single lucky fresh replica cannot mask a miss.
	for i := 0; i < 8; i++ {
		sub, err := cc.Submit(ctx, "ryp", 1, "payload")
		if err != nil {
			t.Fatal(err)
		}
		before := cc.Token()
		popped, err := cc.QueryTasks(ctx, 1, 1, "pool")
		if err != nil || len(popped.Tasks) != 1 {
			t.Fatalf("pop %d = %+v, %v", i, popped, err)
		}
		if popped.Token <= before {
			t.Fatalf("pop %d token %d did not advance the session past %d", i, popped.Token, before)
		}
		if cc.Token() < popped.Token {
			t.Fatalf("session token %d did not ratchet to the pop token %d", cc.Token(), popped.Token)
		}
		sts, err := cc.Statuses(ctx, []int64{sub.ID})
		if err != nil {
			t.Fatalf("follower status read %d: %v", i, err)
		}
		if sts[sub.ID] != core.StatusRunning {
			t.Fatalf("read-your-pops violated on cycle %d: status = %q, want running", i, sts[sub.ID])
		}
	}
	// The reads were really load-balanced: follower read connections exist.
	cc.mu.Lock()
	readers := len(cc.readers)
	cc.mu.Unlock()
	if readers == 0 {
		t.Fatal("no follower read connections — the status reads never left the leader")
	}

	// PopResults carries the token too: report a task, pop its result, and
	// the follower-served status must say complete.
	sub, _ := cc.Submit(ctx, "ryp2", 1, "p")
	popped, err := cc.QueryTasks(ctx, 1, 1, "pool")
	if err != nil || len(popped.Tasks) != 1 {
		t.Fatalf("pop for report = %+v, %v", popped, err)
	}
	if _, err := cc.Report(ctx, sub.ID, 1, "res"); err != nil {
		t.Fatal(err)
	}
	res, err := cc.PopResults(ctx, []int64{sub.ID}, 1)
	if err != nil || len(res.Results) != 1 || res.Token == 0 {
		t.Fatalf("PopResults = %+v, %v; want a result with a commit token", res, err)
	}
	sts, err := cc.Statuses(ctx, []int64{sub.ID})
	if err != nil || sts[sub.ID] != core.StatusComplete {
		t.Fatalf("status after result pop = %v, %v; want complete", sts, err)
	}
}

// TestReadYourPopsStalledFollower is the adversarial variant: one follower
// is frozen mid-replication, so it is provably behind the pop. The
// token-bounded wait — not a sleep — is what keeps the session correct: the
// stalled replica must refuse (transiently) rather than answer with the
// pre-pop state, and the cluster client must rotate past it and still
// return `running`.
func TestReadYourPopsStalledFollower(t *testing.T) {
	n1, srv1 := startClusterNode(t, "rys1", 3, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startClusterNode(t, "rys2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "rys3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()
	waitCond(t, "membership converged", func() bool {
		return len(n1.Peers()) == 3 && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ctx := context.Background()

	sub, err := cc.Submit(ctx, "stall", 1, "p")
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "all applied", func() bool {
		return n2.Applied() == n1.Applied() && n3.Applied() == n1.Applied() && n1.Applied() > 0
	})

	// Freeze n3, then pop: n3 is now strictly behind the pop entry.
	release := stallEngine(t, n3)
	popped, err := cc.QueryTasks(ctx, 1, 1, "pool")
	if err != nil || len(popped.Tasks) != 1 {
		release()
		t.Fatalf("pop with stalled follower = %+v, %v", popped, err)
	}
	popTok := popped.Token
	if n3.Applied() >= popTok {
		release()
		t.Fatalf("test premise broken: stalled follower applied %d >= pop token %d", n3.Applied(), popTok)
	}

	// Direct probe of the stalled follower with the pop token: the
	// token-bounded wait must time out transiently — the follower may NOT
	// answer with its stale (queued) state.
	direct, err := Dial(srv3.Addr())
	if err != nil {
		release()
		t.Fatal(err)
	}
	defer direct.Close()
	start := time.Now()
	statuses := request{Op: "statuses", TaskIDs: []int64{sub.ID}}
	_, err = direct.readAt(statuses, popTok, 100*time.Millisecond, "")
	waited := time.Since(start)
	if !errors.Is(err, ErrUnavailable) {
		release()
		t.Fatalf("stalled follower answered a token-bounded read with %v, want transient refusal", err)
	}
	if waited < 80*time.Millisecond {
		release()
		t.Fatalf("stalled follower refused after %v — it must hold the token-bounded wait, not fail fast", waited)
	}

	// Through the cluster client the session still reads its own pop: both
	// rotation starting points must come back `running` (one of them begins
	// at the frozen n3 and has to rotate off it within the staleness bound,
	// which the read's deadline sets).
	for i := 0; i < 2; i++ {
		rctx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
		sts, err := cc.Statuses(rctx, []int64{sub.ID})
		cancel()
		if err != nil {
			release()
			t.Fatalf("read %d against stalled follower: %v", i, err)
		}
		if sts[sub.ID] != core.StatusRunning {
			release()
			t.Fatalf("read %d observed %q — the stale follower leaked pre-pop state", i, sts[sub.ID])
		}
	}

	// Heal: the follower catches up and the same probe succeeds — the wait
	// was bounded by the token becoming applied, not by wall-clock luck.
	release()
	waitCond(t, "stalled follower caught up", func() bool { return n3.Applied() >= popTok })
	resp, err := direct.readAt(statuses, popTok, 500*time.Millisecond, "")
	if err != nil || resp.StatusMap[sub.ID] != string(core.StatusRunning) {
		t.Fatalf("healed follower token-bounded read = %v, %v; want running", resp.StatusMap, err)
	}
}

// TestConsistencyLevels covers the per-call options end to end: strong
// reads pin to the leader (never opening follower read connections, and
// forwarded there when issued against a follower), eventual reads answer
// without any freshness bound, and session reads route to followers.
func TestConsistencyLevels(t *testing.T) {
	n1, srv1 := startClusterNode(t, "lvl1", 3, "")
	defer func() { srv1.Close(); n1.Close() }()
	n2, srv2 := startClusterNode(t, "lvl2", 2, n1.Addr())
	defer func() { srv2.Close(); n2.Close() }()
	n3, srv3 := startClusterNode(t, "lvl3", 1, n1.Addr())
	defer func() { srv3.Close(); n3.Close() }()
	waitCond(t, "membership converged", func() bool {
		return len(n1.Peers()) == 3 && len(n2.Peers()) == 3 && len(n3.Peers()) == 3
	})

	cc, err := DialCluster(srv1.Addr(), srv2.Addr(), srv3.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ctx := context.Background()

	sub, err := cc.Submit(ctx, "lvl", 1, "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.QueryTasks(ctx, 1, 1, "pool"); err != nil {
		t.Fatal(err)
	}

	// Strong reads only: all pinned to the leader — no follower read
	// connection may be opened.
	for i := 0; i < 4; i++ {
		sts, err := cc.Statuses(ctx, []int64{sub.ID}, core.Strong())
		if err != nil || sts[sub.ID] != core.StatusRunning {
			t.Fatalf("strong read %d = %v, %v; want running from the leader", i, sts, err)
		}
	}
	cc.mu.Lock()
	readers := len(cc.readers)
	cc.mu.Unlock()
	if readers != 0 {
		t.Fatalf("strong reads opened %d follower connections — they must pin to the leader", readers)
	}

	// Strong through a follower connection forwards to the leader: the
	// answer is leader-fresh even though the dialed node is a follower.
	folClient, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer folClient.Close()
	fsts, err := folClient.Statuses(ctx, []int64{sub.ID}, core.Strong())
	if err != nil || fsts[sub.ID] != core.StatusRunning {
		t.Fatalf("follower-forwarded strong read = %v, %v; want running", fsts, err)
	}

	// Eventual: served with no freshness bound — must answer, with either
	// the pre- or post-pop state (staleness is the accepted trade). The
	// submit itself must have reached this follower for the task to have a
	// state at all; replication here is asynchronous.
	waitCond(t, "follower applied the submit", func() bool { return n2.Applied() >= sub.Token })
	ests, err := folClient.Statuses(ctx, []int64{sub.ID}, core.Eventual())
	if err != nil {
		t.Fatalf("eventual read: %v", err)
	}
	if st := ests[sub.ID]; st != core.StatusQueued && st != core.StatusRunning {
		t.Fatalf("eventual read = %q, want the pre- or post-pop state", st)
	}

	// Session reads (the default) route to followers: connections appear.
	for i := 0; i < 4; i++ {
		sts, err := cc.Statuses(ctx, []int64{sub.ID})
		if err != nil || sts[sub.ID] != core.StatusRunning {
			t.Fatalf("session read %d = %v, %v", i, sts, err)
		}
	}
	cc.mu.Lock()
	readers = len(cc.readers)
	cc.mu.Unlock()
	if readers == 0 {
		t.Fatal("session reads opened no follower connections — routing is broken")
	}
}
