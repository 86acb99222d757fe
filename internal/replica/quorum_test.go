package replica

import (
	"context"
	"errors"
	"os"
	"slices"
	"testing"
	"time"
)

// The quorum tests drive the commit watermark — a leader's step counting
// its followers' acks — with acks as step inputs, and the node's waits on it.

// qleader returns the state of a leader of followers, whose log ends at
// applied, committing what quorum of them ack.
func qleader(quorum int, applied uint64, followers ...string) state {
	st := newState(Peer{ID: "l", ReplAddr: "l"}, "", xelect, xelect, quorum, 1)
	for _, id := range followers {
		st.peers = withPeer(st.peers, Peer{ID: id, ReplAddr: id})
	}
	st.applied, st.joined = applied, true
	step(&st, input{ev: evPromote}, nil)
	return st
}

// qack steps follower id's ack of idx on this leadership's stream.
func qack(st *state, id string, idx uint64, out []output) []output {
	return step(st, input{ev: evFrame, f: frame{Type: frameAck, Term: st.term, Applied: idx}, from: Peer{ID: id}}, out)
}

// wantCommit fails unless out says the watermark rose to c (c 0: that it
// did not move), and the state holds c.
func wantCommit(t *testing.T, what string, st *state, out []output, c uint64) {
	t.Helper()
	o, ok := has(out, doCommit)
	switch {
	case c == 0 && ok:
		t.Fatalf("%s: commit %d, want none (watermark %d)", what, o.f.Committed, st.committed)
	case c != 0 && (!ok || o.f.Committed != c || st.committed != c):
		t.Fatalf("%s: outputs %+v, watermark %d; want a commit of %d", what, out, st.committed, c)
	}
}

// TestQuorumWatermark: the leader's watermark is the quorum-th highest
// follower ack, acks are monotonic per follower, and step says commit exactly
// when the watermark rises. An ack of another leadership's stream, or from a
// node outside the view, counts nothing.
func TestQuorumWatermark(t *testing.T) {
	st := qleader(2, 5, "a", "b", "c")
	if st.committed != 0 {
		t.Fatalf("watermark before any ack = %d, want 0", st.committed)
	}
	wantCommit(t, "a=3", &st, qack(&st, "a", 3, nil), 0)
	wantCommit(t, "a=3 b=5 (2nd-highest ack)", &st, qack(&st, "b", 5, nil), 3)
	wantCommit(t, "stale a=2", &st, qack(&st, "a", 2, nil), 0)
	if st.committed != 3 {
		t.Fatalf("watermark after a stale ack = %d, want 3", st.committed)
	}
	wantCommit(t, "a=3 b=5 c=4", &st, qack(&st, "c", 4, nil), 4)

	old := step(&st, input{ev: evFrame, f: frame{Type: frameAck, Term: st.term - 1, Applied: 5}, from: Peer{ID: "c"}}, nil)
	wantCommit(t, "c=5 on an earlier leadership's stream", &st, old, 0)
	wantCommit(t, "x=5 from outside the view", &st, qack(&st, "x", 5, nil), 0)
	wantCommit(t, "c=5", &st, qack(&st, "c", 5, nil), 5)
}

// TestQuorumWatermarkTable: for quorum 1 and 2, under out-of-order, stale and
// duplicate acks, the watermark after every stepped ack equals the
// sort-based reference — the quorum-th highest per-follower ack, never
// regressing — and a stepped ack allocates nothing given an output buffer.
func TestQuorumWatermarkTable(t *testing.T) {
	type ack struct {
		id  string
		idx uint64
	}
	reference := func(quorum int, acks map[string]uint64, prev uint64) uint64 {
		if len(acks) < quorum {
			return prev
		}
		vals := make([]uint64, 0, len(acks))
		for _, v := range acks {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		return max(prev, vals[len(vals)-quorum])
	}
	for _, tc := range []struct {
		name   string
		quorum int
		acks   []ack
	}{
		{"q1 in order", 1, []ack{{"a", 1}, {"a", 2}, {"b", 3}, {"b", 4}}},
		{"q1 out of order", 1, []ack{{"b", 4}, {"a", 2}, {"c", 3}, {"a", 5}}},
		{"q1 stale and duplicate", 1, []ack{{"a", 3}, {"a", 1}, {"a", 3}, {"b", 2}, {"b", 2}}},
		{"q2 in order", 2, []ack{{"a", 1}, {"b", 1}, {"a", 2}, {"b", 2}, {"c", 3}}},
		{"q2 out of order", 2, []ack{{"c", 5}, {"a", 2}, {"b", 4}, {"a", 3}, {"c", 6}}},
		{"q2 stale and duplicate", 2, []ack{{"a", 4}, {"b", 4}, {"b", 2}, {"a", 4}, {"c", 1}, {"c", 9}, {"c", 3}}},
		{"q2 one follower", 2, []ack{{"a", 3}, {"a", 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := qleader(tc.quorum, 10, "a", "b", "c")
			seen := map[string]uint64{}
			var want uint64
			for i, a := range tc.acks {
				prev := want
				out := qack(&st, a.id, a.idx, nil)
				seen[a.id] = max(seen[a.id], a.idx)
				want = reference(tc.quorum, seen, want)
				_, committed := has(out, doCommit)
				if st.committed != want || committed != (want > prev) {
					t.Fatalf("after ack %d (%s=%d): watermark %d, commit output %v; want %d, %v",
						i, a.id, a.idx, st.committed, committed, want, want > prev)
				}
			}
		})
	}

	st := qleader(2, 0, "a", "b")
	buf := make([]output, 0, 4)
	var next uint64
	if allocs := testing.AllocsPerRun(100, func() {
		next++
		buf = qack(&st, "a", next, buf[:0]) // each pair of acks raises the watermark
		buf = qack(&st, "b", next, buf[:0])
		buf = qack(&st, "b", next, buf[:0]) // a duplicate
	}); allocs != 0 {
		t.Fatalf("a stepped ack allocates %.1f times per run, want 0", allocs)
	}
	if st.committed != next {
		t.Fatalf("watermark %d after both followers reached %d", st.committed, next)
	}
}

// TestQuorumZeroIsAsync: with WriteQuorum 0 no ack commits anything in step,
// while the node counts every appended entry as committed and its quorum
// wait never blocks — the asynchronous semantics.
func TestQuorumZeroIsAsync(t *testing.T) {
	st := qleader(0, 3, "a", "b")
	wantCommit(t, "async a=3", &st, qack(&st, "a", 3, nil), 0)
	wantCommit(t, "async b=3", &st, qack(&st, "b", 3, nil), 0)

	n := newSoloLeader(t, 0)
	res, err := n.DB().Submit(context.Background(), "async", 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Committed(); got != res.Token || got != n.Applied() {
		t.Fatalf("async Committed = %d, want the write's token %d", got, res.Token)
	}
	start := time.Now()
	if err := n.WaitQuorumIndex(res.Token); err != nil {
		t.Fatalf("async WaitQuorumIndex: %v", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("async WaitQuorumIndex blocked")
	}
}

// TestQuorumAcksForgottenOnPromotion: a leader that steps down and is
// promoted again counts no ack of its earlier leadership — a follower that
// acked then may since have been re-bootstrapped by another leader — and
// starts its watermark at the one last shipped to it, never past its log.
func TestQuorumAcksForgottenOnPromotion(t *testing.T) {
	st := qleader(2, 5, "a", "b", "c")
	wantCommit(t, "a=5, short of quorum", &st, qack(&st, "a", 5, nil), 0)
	if out := step(&st, input{ev: evStepDown}, nil); st.role != RoleFollower {
		t.Fatalf("step down: %+v", out)
	}
	if out := step(&st, input{ev: evPromote}, nil); st.role != RoleLeader {
		t.Fatalf("promote again: %+v", out)
	}
	wantCommit(t, "b=5 after the promotion", &st, qack(&st, "b", 5, nil), 0)
	wantCommit(t, "a=5 in this leadership", &st, qack(&st, "a", 5, nil), 5)

	// A follower shipped a watermark past its own log leads from its log's end.
	f := xstate(1)
	f.quorum, f.applied, f.committed = 2, 4, 7
	step(&f, input{ev: evPromote}, nil)
	if f.role != RoleLeader || f.committed != 4 {
		t.Fatalf("promoted follower: role %v, watermark %d; want leader at 4", f.role, f.committed)
	}
}

// admit takes follower id into leader n's view, as its join does.
func admit(t *testing.T, n *Node, id string) {
	t.Helper()
	join := frame{Type: frameJoin, Peer: Peer{ID: id, ReplAddr: "127.0.0.1:1"}}
	if _, err := n.step(input{ev: evFrame, f: join}, nil); err != nil {
		t.Fatal(err)
	}
}

// stepAck steps follower id's ack of idx as n's ack reader does.
func stepAck(t *testing.T, n *Node, id string, idx uint64) {
	t.Helper()
	if _, err := n.step(input{ev: evFrame, f: frame{Type: frameAck, Term: n.Term(), Applied: idx}, from: Peer{ID: id}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumWaitTimeoutAndDemotion: an unreplicated index times out with
// ErrQuorumTimeout, a demotion fails a pending wait at once with ErrDemoted
// (a demoted leader must not strand writers), and a wait after it fails with
// ErrNotLeader.
func TestQuorumWaitTimeoutAndDemotion(t *testing.T) {
	n := newSoloLeader(t, 1)
	admit(t, n, "f1")
	res, err := n.DB().Submit(context.Background(), "wait", 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.WaitQuorumIndex(res.Token); !errors.Is(err, ErrQuorumTimeout) {
		t.Fatalf("WaitQuorumIndex on a silent cluster = %v, want ErrQuorumTimeout", err)
	}

	done := make(chan error, 1)
	go func() { done <- n.WaitQuorumIndex(res.Token) }()
	time.Sleep(10 * time.Millisecond)
	if !n.StepDown() {
		t.Fatal("leader of two did not step down")
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrDemoted) {
			t.Fatalf("pending wait after demotion = %v, want ErrDemoted", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending wait still blocked after demotion")
	}
	if err := n.WaitQuorumIndex(res.Token); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("wait after demotion = %v, want ErrNotLeader", err)
	}
}

// TestForgedAckRefused: an ack past the leader's log acks entries no
// follower holds. With quorum 1 it would commit them — and release the next
// write's quorum wait — so the leader counts it as malformed and drops the
// stream, and its watermark stays within its log.
func TestForgedAckRefused(t *testing.T) {
	n, err := New(Config{ID: "forged", WriteQuorum: 1, Heartbeat: beat, ElectionTimeout: elect, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()
	submitN(t, n.DB(), 5)
	last := n.Applied()

	f := joinFake(t, n.Addr(), "forger", n.Term(), last)
	defer f.close()
	f.send(frame{Type: frameAck, Applied: 1000})
	var fr frame
	for err = f.rd.read(&fr); err == nil; err = f.rd.read(&fr) {
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("leader kept streaming to a follower that acked past its log")
	}
	if got := n.met.malformed.Value(); got != 1 {
		t.Fatalf("malformed counter = %d, want 1", got)
	}
	if got := n.Committed(); got > last {
		t.Fatalf("watermark %d after a forged ack, past the log's end %d", got, last)
	}
	res, err := n.DB().Submit(context.Background(), "exp", 1, "next")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.WaitQuorumIndex(res.Token); err == nil {
		t.Fatalf("write %d reported quorum-committed with no follower holding it", res.Token)
	}
}
