package replica

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
	"osprey/internal/watch"
)

const (
	beat    = 10 * time.Millisecond
	elect   = 60 * time.Millisecond
	waitMax = 5 * time.Second
)

func newNode(t *testing.T, id string, prio int, join string) *Node {
	t.Helper()
	n, err := New(Config{
		ID: id, Priority: prio, Join: join,
		Heartbeat: beat, ElectionTimeout: elect,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	n.SetServiceAddr("svc-" + id) // stand-in: no EMEWS service in these tests
	n.Start()
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitMax)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// submitN pushes tasks through the node-local DB (as the leader's service
// would) and returns the ids.
func submitN(t *testing.T, db *core.DB, n int) []int64 {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		res, err := db.Submit(context.Background(), "exp", 1, "payload")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.ID
	}
	return ids
}

func TestFollowerBootstrapAndStream(t *testing.T) {
	leader := newNode(t, "n1", 3, "")
	defer leader.Close()

	// Pre-join writes arrive via the bootstrap snapshot.
	submitN(t, leader.DB(), 5)

	fol := newNode(t, "n2", 2, leader.Addr())
	defer fol.Close()
	waitFor(t, "bootstrap", func() bool { return fol.Applied() == leader.Applied() })

	counts, err := fol.DB().Counts(context.Background(), "exp")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != 5 {
		t.Fatalf("follower sees %v after bootstrap, want 5 queued", counts)
	}

	// Post-join writes arrive via entry streaming.
	submitN(t, leader.DB(), 7)
	waitFor(t, "stream catch-up", func() bool { return fol.Applied() == leader.Applied() })
	counts, err = fol.DB().Counts(context.Background(), "exp")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != 12 {
		t.Fatalf("follower sees %v after streaming, want 12 queued", counts)
	}

	// Membership propagated.
	if len(fol.Peers()) != 2 || fol.Status().LeaderID != "n1" {
		t.Fatalf("follower membership %v, leader %q", fol.Peers(), fol.Status().LeaderID)
	}
}

func TestDeterministicPromotionOnLeaderDeath(t *testing.T) {
	leader := newNode(t, "n1", 3, "")
	f2 := newNode(t, "n2", 2, leader.Addr())
	defer f2.Close()
	f3 := newNode(t, "n3", 1, leader.Addr())
	defer f3.Close()

	submitN(t, leader.DB(), 10)
	waitFor(t, "both followers caught up", func() bool {
		return f2.Applied() == leader.Applied() && f3.Applied() == leader.Applied()
	})
	// Deterministic promotion needs an agreed membership view; wait for the
	// join broadcasts to land before killing the leader.
	waitFor(t, "membership convergence", func() bool {
		return len(f2.Peers()) == 3 && len(f3.Peers()) == 3
	})

	start := time.Now()
	leader.Close()

	// The higher-priority follower must win, and within the failover window:
	// detection (2x election timeout read deadline) + its rank-0 instant claim.
	waitFor(t, "n2 promotion", func() bool { return f2.IsLeader() })
	if d := time.Since(start); d > 10*elect {
		t.Fatalf("promotion took %v, want < %v", d, 10*elect)
	}
	if f2.Term() <= 1 {
		t.Fatalf("promoted term = %d, want > 1", f2.Term())
	}

	// The lower-priority follower re-joins the new leader, never promotes.
	waitFor(t, "n3 re-follow", func() bool { return f3.Status().LeaderID == "n2" })
	if f3.IsLeader() {
		t.Fatal("n3 must not promote while n2 lives")
	}

	// Writes on the new leader replicate to the surviving follower.
	submitN(t, f2.DB(), 3)
	waitFor(t, "n3 catch-up on new leader", func() bool { return f3.Applied() == f2.Applied() })
	counts, err := f3.DB().Counts(context.Background(), "exp")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != 13 {
		t.Fatalf("n3 sees %v after failover, want 13 queued", counts)
	}
}

// dialRepl opens a raw replication connection the way Node.dial does:
// connect, then the protocol preamble.
func dialRepl(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(waitMax))
	if _, err := conn.Write([]byte{replMagic, replVersion}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// dialJoin hand-rolls one handshake — a join, or any other opening frame —
// and returns the first reply frame.
func dialJoin(t *testing.T, addr string, join frame) frame {
	t.Helper()
	s := newFake(t, dialRepl(t, addr))
	defer s.close()
	s.send(join)
	return s.next()
}

// TestClaimGrantAdoptsClaimant: a node that grants a leadership claim adds
// the claimant to its membership view. A granter whose view lacked it — it
// joined through a leader that died before a heartbeat carried the larger
// view here — would otherwise elect among a view that cannot reach a majority
// while the leader it just voted for starves for its ack.
func TestClaimGrantAdoptsClaimant(t *testing.T) {
	n := newNode(t, "g1", 3, "")
	defer n.Close()
	claimant := Peer{ID: "g2", Priority: 2, ReplAddr: "127.0.0.1:1", SvcAddr: "svc-g2"}
	reply := dialJoin(t, n.Addr(), frame{Type: frameClaim, Term: n.Term() + 1, Peer: claimant})
	if !reply.Granted {
		t.Fatalf("claim for term %d not granted: %+v", n.Term()+1, reply)
	}
	for _, p := range n.Peers() {
		if p == claimant {
			return
		}
	}
	t.Fatalf("view after the grant = %+v, want it to hold the claimant %+v", n.Peers(), claimant)
}

// metaSyncFailFS is the real disk, except that fsyncing a meta tmp file —
// the publish of a new term — fails while fail is set.
type metaSyncFailFS struct {
	minisql.FS
	fail atomic.Bool
}

func (fs *metaSyncFailFS) CreateTemp(dir, pattern string) (minisql.File, error) {
	f, err := fs.FS.CreateTemp(dir, pattern)
	if err != nil || !strings.HasPrefix(filepath.Base(f.Name()), "meta-") {
		return f, err
	}
	return metaSyncFailFile{f, &fs.fail}, nil
}

type metaSyncFailFile struct {
	minisql.File
	fail *atomic.Bool
}

func (f metaSyncFailFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected meta tmp fsync failure")
	}
	return f.File.Sync()
}

// TestClaimRefusedWhenTermNotPersisted: a node that cannot persist the term a
// claim asks for refuses the claim and keeps its own term and role; granting
// anyway would let a restart, which reads the older term back, vote a second
// time in the same term.
func TestClaimRefusedWhenTermNotPersisted(t *testing.T) {
	fsys := &metaSyncFailFS{FS: minisql.OSFS}
	n, err := New(Config{
		ID: "p1", Priority: 3, Heartbeat: beat, ElectionTimeout: elect,
		DataDir: t.TempDir(), Fsync: true, FS: fsys, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetServiceAddr("svc-p1")
	n.Start()
	defer n.Close()
	waitFor(t, "p1 to lead", n.IsLeader)

	term := n.Term()
	claimant := Peer{ID: "p2", Priority: 2, ReplAddr: "127.0.0.1:1", SvcAddr: "svc-p2"}
	fsys.fail.Store(true)
	reply := dialJoin(t, n.Addr(), frame{Type: frameClaim, Term: term + 1, Peer: claimant})
	fsys.fail.Store(false)
	if reply.Granted || n.Term() != term || !n.IsLeader() {
		t.Fatalf("claim for term %d with the term unpersistable: granted %v, term %d (was %d), leader %v; want refused and unchanged",
			term+1, reply.Granted, n.Term(), term, n.IsLeader())
	}
	if reply := dialJoin(t, n.Addr(), frame{Type: frameClaim, Term: term + 1, Peer: claimant}); !reply.Granted {
		t.Fatalf("the same claim once the disk recovered: %+v, want granted", reply)
	}
}

// TestJoinResumeVsSnapshot: a joiner announcing a position within the
// leader's term and retained WAL resumes incrementally (heartbeat hello, no
// snapshot payload), From 0 included; a fresh joiner (applied term 0), a
// stale-term joiner or one that asks with ForceSnapshot bootstraps from a
// snapshot.
func TestJoinResumeVsSnapshot(t *testing.T) {
	leader := newNode(t, "j1", 3, "")
	defer leader.Close()
	submitN(t, leader.DB(), 5)
	peer := Peer{ID: "probe", Priority: 0, ReplAddr: "127.0.0.1:1", SvcAddr: "svc-probe"}

	resume := dialJoin(t, leader.Addr(), frame{Type: frameJoin, Peer: peer, Term: 1, AppliedTerm: 1, From: 3})
	if resume.Type != frameHeartbeat || resume.SnapIndex != 0 {
		t.Fatalf("same-term resume got frame type %d (snapshot at %d), want heartbeat hello",
			resume.Type, resume.SnapIndex)
	}

	// Same adopted term but an older applied term: the joiner's log tail
	// came from a previous leadership (its term was bumped by a granted
	// claim), so its prefix is not provably this leader's — snapshot.
	oldTail := dialJoin(t, leader.Addr(), frame{Type: frameJoin, Peer: peer, Term: 1, AppliedTerm: 0, From: 3})
	if oldTail.Type != frameSnapshot {
		t.Fatalf("old-applied-term join got frame type %d, want snapshot", oldTail.Type)
	}

	fresh := dialJoin(t, leader.Addr(), frame{Type: frameJoin, Peer: peer, Term: 1, From: 0})
	if fresh.Type != frameSnapshot || fresh.SnapIndex != 5 {
		t.Fatalf("fresh join got frame type %d snapIndex %d, want snapshot at 5", fresh.Type, fresh.SnapIndex)
	}

	stale := dialJoin(t, leader.Addr(), frame{Type: frameJoin, Peer: peer, Term: 0, From: 3})
	if stale.Type != frameSnapshot {
		t.Fatalf("stale-term join got frame type %d, want snapshot", stale.Type)
	}

	// A snapshot is asked for explicitly, never inferred from From 0: a
	// snapshot resets the follower's watch hub under live subscriptions.
	forced := dialJoin(t, leader.Addr(), frame{Type: frameJoin, Peer: peer, Term: 1, AppliedTerm: 1, From: 3, ForceSnapshot: true})
	if forced.Type != frameSnapshot || forced.SnapIndex != 5 {
		t.Fatalf("ForceSnapshot join got frame type %d snapIndex %d, want snapshot at 5", forced.Type, forced.SnapIndex)
	}
	empty := newNode(t, "j2", 3, "")
	defer empty.Close()
	nothing := dialJoin(t, empty.Addr(), frame{Type: frameJoin, Peer: peer, Term: 1, AppliedTerm: 1, From: 0})
	if nothing.Type != frameHeartbeat || nothing.SnapIndex != 0 {
		t.Fatalf("same-term join at From 0 to an empty log got frame type %d (snapshot at %d), want heartbeat hello",
			nothing.Type, nothing.SnapIndex)
	}
}

// TestLateFollowerWaitsForLeader: a follower started before its leader must
// keep retrying the join address, not promote itself.
func TestLateFollowerWaitsForLeader(t *testing.T) {
	// Reserve an address for the future leader.
	pending, err := New(Config{ID: "n1", Priority: 3, Heartbeat: beat, ElectionTimeout: elect})
	if err != nil {
		t.Fatal(err)
	}
	addr := pending.Addr()
	pending.Close() // free the port; follower will dial a dead address

	fol := newNode(t, "n2", 2, addr)
	defer fol.Close()
	time.Sleep(4 * elect)
	if fol.IsLeader() {
		t.Fatal("unjoined follower promoted itself")
	}
}

// TestAddrReturnsAdvertise: Addr is documented as "the --join target for
// other nodes", so it must return the advertised address when one is set —
// the raw listener address is undialable behind NAT or a wildcard bind.
func TestAddrReturnsAdvertise(t *testing.T) {
	n, err := New(Config{ID: "adv", Advertise: "203.0.113.9:7700"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Addr(); got != "203.0.113.9:7700" {
		t.Fatalf("Addr() with Advertise = %q, want the advertised address", got)
	}

	plain, err := New(Config{ID: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if got := plain.Addr(); got == "" || got == "203.0.113.9:7700" {
		t.Fatalf("Addr() without Advertise = %q, want the bound listener address", got)
	}
}

// TestPromotionRankViewLost: a node missing from its own membership view
// must rank LAST (full backoff, probing everyone), not first — two view-lost
// nodes both claiming instant leadership is a split brain.
func TestPromotionRankViewLost(t *testing.T) {
	cands := []Peer{{ID: "a", Priority: 3}, {ID: "b", Priority: 2}, {ID: "c", Priority: 1}}
	rankPeers(cands)
	if got := promotionRank(cands, "a"); got != 0 {
		t.Fatalf("rank of top candidate = %d, want 0", got)
	}
	if got := promotionRank(cands, "c"); got != 2 {
		t.Fatalf("rank of bottom candidate = %d, want 2", got)
	}
	if got := promotionRank(cands, "ghost"); got != len(cands) {
		t.Fatalf("rank of view-lost node = %d, want %d (last)", got, len(cands))
	}
	if got := promotionRank(nil, "ghost"); got != 0 {
		t.Fatalf("rank with empty candidate list = %d, want 0", got)
	}
}

// TestAdoptViewLeaderID: the leader's identity ships explicitly in every
// view frame, so a follower recovers the full leader Peer (ID included) even
// when no membership entry's ReplAddr matches the advertised LeaderRepl.
// Without the ID, dead-leader filtering in elections degrades to address
// comparison.
func TestAdoptViewLeaderID(t *testing.T) {
	n, err := New(Config{ID: "f1", Join: "203.0.113.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	_, err = n.step(input{ev: evFrame, f: frame{
		Type: frameHeartbeat, Term: 7, Role: RoleLeader,
		LeaderID: "lead", LeaderRepl: "198.51.100.2:7700", LeaderSvc: "svc-lead",
		Peers: []Peer{
			// The membership entry carries a different ReplAddr than the
			// advertised one — address matching would miss it.
			{ID: "lead", Priority: 9, ReplAddr: "10.0.0.2:7700", SvcAddr: "svc-lead"},
			{ID: "f1", Priority: 1, ReplAddr: "10.0.0.3:7700"},
		},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Status().LeaderID; got != "lead" {
		t.Fatalf("LeaderID after adopting a heartbeat = %q, want %q", got, "lead")
	}
	n.mu.Lock()
	leader := n.st.leader
	n.mu.Unlock()
	if leader.Priority != 9 {
		t.Fatalf("adopted leader peer = %+v, want the full membership entry", leader)
	}
}

// TestLeaderIDInFrames: the join hello and probe status frames name the
// leader explicitly.
func TestLeaderIDInFrames(t *testing.T) {
	leader := newNode(t, "idl", 3, "")
	defer leader.Close()
	peer := Peer{ID: "probe", Priority: 0, ReplAddr: "127.0.0.1:1"}
	hello := dialJoin(t, leader.Addr(), frame{Type: frameJoin, Peer: peer, Term: 1, From: 0})
	if hello.LeaderID != "idl" {
		t.Fatalf("join hello LeaderID = %q, want %q", hello.LeaderID, "idl")
	}
	status := dialJoin(t, leader.Addr(), frame{Type: frameProbe, Peer: peer})
	if status.LeaderID != "idl" {
		t.Fatalf("probe status LeaderID = %q, want %q", status.LeaderID, "idl")
	}
}

// TestMembershipNeverDecays: membership is every peer a leader admitted. A
// survivor whose two peers are dead keeps counting them — 1 of 3 is no
// majority — instead of shrinking its view into a majority of one.
func TestMembershipNeverDecays(t *testing.T) {
	leader := newNode(t, "v1", 3, "")
	defer leader.Close()
	f2 := newNode(t, "v2", 2, leader.Addr())
	f3 := newNode(t, "v3", 1, leader.Addr())
	waitFor(t, "membership convergence", func() bool { return len(leader.Peers()) == 3 })

	f2.Close()
	f3.Close()
	time.Sleep(25 * elect)
	if n := len(leader.Peers()); n != 3 || leader.IsLeader() {
		t.Fatalf("survivor after 25 election timeouts: %d peers, leader %v; want 3 peers and not leading", n, leader.IsLeader())
	}
}

// fakePeer is a cluster member that only answers: a probe with a follower's
// status at term 1 and an empty log, a claim with a refusal. It counts the
// claims it is sent.
func fakePeer(t *testing.T) (Peer, *atomic.Int32) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	claims := new(atomic.Int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.SetDeadline(time.Now().Add(waitMax))
			var pre [2]byte
			var f frame
			if _, err := io.ReadFull(conn, pre[:]); err == nil && newFrameReader(conn).read(&f) == nil {
				if f.Type == frameClaim {
					claims.Add(1)
				}
				w := frameWriter{w: conn}
				w.write(&frame{Type: frameStatus, Term: 1})
			}
			conn.Close()
		}
	}()
	return Peer{ID: "p3", Priority: 1, ReplAddr: ln.Addr().String(), SvcAddr: "svc-p3"}, claims
}

// TestClaimNotSentWhenTermNotPersisted: a candidate claims a term only once
// it is on disk. With the meta file's fsync failing, the candidate that has a
// majority in reach sends no claim and keeps its term and role: a restart
// reading the older term back could otherwise vote a second time in the
// term it claimed. Once the disk recovers it claims.
func TestClaimNotSentWhenTermNotPersisted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lead := &fakeLeader{t: t, ln: ln}
	me := Peer{ID: "fake-leader", Priority: 9, ReplAddr: ln.Addr().String(), SvcAddr: "svc-fake"}
	p3, claims := fakePeer(t)
	empty, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	var snap bytes.Buffer
	if err := empty.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	fsys := &metaSyncFailFS{FS: minisql.OSFS}
	n, err := New(Config{
		ID: "p2", Priority: 2, Join: ln.Addr().String(), Heartbeat: beat, ElectionTimeout: elect,
		DataDir: t.TempDir(), Fsync: true, FS: fsys, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetServiceAddr("svc-p2")
	n.Start()
	defer n.Close()
	join, stream := lead.accept()
	stream.sendSnapshot(frame{Term: 1, Role: RoleLeader,
		Peers: []Peer{me, join.Peer, p3}, LeaderID: me.ID, LeaderRepl: me.ReplAddr, LeaderSvc: me.SvcAddr}, snap.Bytes())
	waitFor(t, "bootstrap", func() bool { return n.store.Meta().AppliedTerm == 1 && len(n.Peers()) == 3 })

	// The leader dies; p2 ranks first among the survivors and reaches p3: a
	// majority of three.
	fsys.fail.Store(true)
	ln.Close()
	stream.close()
	time.Sleep(8 * elect)
	if c, term := claims.Load(), n.Term(); c != 0 || term != 1 || n.IsLeader() {
		t.Fatalf("with the term unpersistable: %d claims sent, term %d, leader %v; want none, 1, false", c, term, n.IsLeader())
	}
	fsys.fail.Store(false)
	waitFor(t, "a claim once the term persists", func() bool { return claims.Load() > 0 })
}

// TestLeaderDemotesWithoutMajority: a leader that stops hearing from a
// majority of its membership steps down within the lease window instead of
// serving as a zombie, and its role change is observable.
func TestLeaderDemotesWithoutMajority(t *testing.T) {
	leader := newNode(t, "m1", 3, "")
	defer leader.Close()
	f2 := newNode(t, "m2", 2, leader.Addr())
	f3 := newNode(t, "m3", 1, leader.Addr())

	waitFor(t, "membership convergence", func() bool { return len(leader.Peers()) == 3 })

	// Kill both followers: the leader is now a minority of one.
	start := time.Now()
	f2.Close()
	f3.Close()
	waitFor(t, "leader demotion", func() bool { return !leader.IsLeader() })
	// Lease window (2x election timeout) plus detection slack.
	if d := time.Since(start); d > 8*elect {
		t.Fatalf("demotion took %v, want < %v", d, 8*elect)
	}
}

// TestQuorumWriteBlocksWithoutFollowers: with WriteQuorum 1 and no follower
// connected, WaitQuorumIndex fails (timeout or demotion) instead of confirming an
// unreplicated write; with a follower streaming it returns promptly.
func TestQuorumWriteBlocksWithoutFollowers(t *testing.T) {
	n, err := New(Config{
		ID: "q1", Priority: 3,
		Heartbeat: beat, ElectionTimeout: elect, WriteQuorum: 1,
		LeaseTimeout: 4 * elect,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetServiceAddr("svc-q1")
	n.Start()

	submitN(t, n.DB(), 1)
	if err := n.WaitQuorumIndex(n.Applied()); err == nil {
		t.Fatal("WaitQuorumIndex succeeded with no follower in the cluster")
	}

	fol := newNode(t, "q2", 2, n.Addr())
	defer fol.Close()
	waitFor(t, "follower catch-up", func() bool { return fol.Applied() == n.Applied() })
	if err := n.WaitQuorumIndex(n.Applied()); err != nil {
		t.Fatalf("WaitQuorumIndex with a caught-up follower: %v", err)
	}
	if got := n.Committed(); got != n.Applied() {
		t.Fatalf("Committed = %d, want %d", got, n.Applied())
	}
}

// TestCommitRefusedOffLeader: a write that reaches a node that does not lead
// (a follower's database; a leader demoted between the service's leadership
// check and the write) must not commit — it would be applied locally, never
// logged or shipped, published at token 0 and acknowledged.
func TestCommitRefusedOffLeader(t *testing.T) {
	ctx := context.Background()
	leader := newNode(t, "n1", 3, "")
	defer leader.Close()
	submitN(t, leader.DB(), 3)
	fol := newNode(t, "n2", 2, leader.Addr())
	defer fol.Close()
	waitFor(t, "bootstrap", func() bool { return fol.Attached() && fol.Applied() == leader.Applied() })

	before, err := fol.DB().Counts(ctx, "exp")
	if err != nil {
		t.Fatal(err)
	}
	st, err := fol.DB().Watch(ctx, watch.Query{All: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res, err := fol.DB().Submit(ctx, "exp", 1, "stray")
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower-local Submit = %+v, %v; want ErrNotLeader", res, err)
	}
	// A pop that finds work commits a transition too.
	if res, err := fol.DB().QueryTasks(ctx, 1, 1, "pool"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower-local QueryTasks = %+v, %v; want ErrNotLeader", res, err)
	}
	after, err := fol.DB().Counts(ctx, "exp")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("refused writes left a trace: counts %v -> %v", before, after)
	}
	for quiet := time.After(50 * time.Millisecond); quiet != nil; {
		select {
		case evs := <-st.Events():
			for _, ev := range evs {
				if !ev.Resync { // the subscription's opening position report
					t.Fatalf("refused writes published %+v on the follower's hub", ev)
				}
			}
		case <-quiet:
			quiet = nil
		}
	}

	// The follower still replicates: the refusals rolled back cleanly (the
	// AUTOINCREMENT counter included, or the next shipped insert collides).
	ids := submitN(t, leader.DB(), 1)
	waitFor(t, "stream after refusal", func() bool { return fol.Applied() == leader.Applied() })
	if task, err := fol.DB().GetTask(ctx, ids[0]); err != nil || task.Payload != "payload" {
		t.Fatalf("follower's copy of task %d = %+v, %v", ids[0], task, err)
	}
}
