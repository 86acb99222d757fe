package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
)

// newDurableNode is newNode with a data dir: fsync off (the tests exercise
// recovery logic, not the disk barrier) and aggressive checkpoints so the
// in-memory WAL path and the disk path both see traffic.
func newDurableNode(t *testing.T, id string, prio int, join, dir string) *Node {
	t.Helper()
	n, err := New(Config{
		ID: id, Priority: prio, Join: join,
		Heartbeat: beat, ElectionTimeout: elect,
		// These tests have the leader write alone while its one follower is
		// down; the default lease (2x elect) demotes it mid-write when the
		// writes are slow (-race), so they run with one that cannot expire.
		LeaseTimeout: time.Minute,
		DataDir:      dir, CheckpointEvery: 16,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	n.SetServiceAddr("svc-" + id)
	n.Start()
	return n
}

func queuedCount(t *testing.T, db *core.DB) int {
	t.Helper()
	counts, err := db.Counts(context.Background(), "exp")
	if err != nil {
		t.Fatal(err)
	}
	return counts[core.StatusQueued]
}

// TestFollowerRestartRejoinsWithoutSnapshot is the restart-rejoin fix: a
// durable follower that restarts catches up from its own recovered applied
// index instead of taking a full snapshot install.
func TestFollowerRestartRejoinsWithoutSnapshot(t *testing.T) {
	base := t.TempDir()
	leader := newDurableNode(t, "n1", 3, "", filepath.Join(base, "n1"))
	defer leader.Close()
	folDir := filepath.Join(base, "n2")
	fol := newDurableNode(t, "n2", 2, leader.Addr(), folDir)

	submitN(t, leader.DB(), 30)
	waitFor(t, "follower caught up", func() bool { return fol.Applied() == leader.Applied() })
	installs := fol.met.snapsInstall.Value()
	fol.Close()

	// More writes land while the follower is down.
	submitN(t, leader.DB(), 20)

	fol2 := newDurableNode(t, "n2", 2, leader.Addr(), folDir)
	defer fol2.Close()
	if got := fol2.Applied(); got < 30 {
		t.Fatalf("restarted follower recovered applied=%d, want >= 30 from local state", got)
	}
	waitFor(t, "restarted follower caught up", func() bool {
		return fol2.Applied() == leader.Applied()
	})
	if got := fol2.met.snapsInstall.Value(); got != 0 {
		t.Fatalf("restarted follower installed %d snapshots (plus %d pre-restart), want resume without any", got, installs)
	}
	if got := queuedCount(t, fol2.DB()); got != 50 {
		t.Fatalf("restarted follower sees %d queued, want 50", got)
	}
}

// TestClusterFullRestartPreservesState stops every node, then brings the
// cluster back from disk alone: the leader recovers its state cold (no live
// peer) and the follower rejoins it.
func TestClusterFullRestartPreservesState(t *testing.T) {
	base := t.TempDir()
	leadDir := filepath.Join(base, "n1")
	folDir := filepath.Join(base, "n2")
	leader := newDurableNode(t, "n1", 3, "", leadDir)
	fol := newDurableNode(t, "n2", 2, leader.Addr(), folDir)

	ids := submitN(t, leader.DB(), 40)
	waitFor(t, "follower caught up", func() bool { return fol.Applied() == leader.Applied() })
	wantApplied := leader.Applied()
	fol.Close()
	leader.Close()

	leader2 := newDurableNode(t, "n1", 3, "", leadDir)
	defer leader2.Close()
	if got := leader2.Applied(); got != wantApplied {
		t.Fatalf("cold-restarted leader applied=%d, want %d", got, wantApplied)
	}
	// A restarted leader must open a NEW term, not resume the persisted one:
	// crash recovery can roll its log back past entries a follower already
	// applied, and a same-term rejoin would resume instead of healing via
	// snapshot — silent divergence once new writes reuse those indexes.
	if got := leader2.Term(); got < 2 {
		t.Fatalf("cold-restarted leader term = %d, want > the recovered term 1", got)
	}
	if got := queuedCount(t, leader2.DB()); got != len(ids) {
		t.Fatalf("cold-restarted leader sees %d queued, want %d", got, len(ids))
	}
	// Writes keep flowing on the recovered log.
	submitN(t, leader2.DB(), 5)

	fol2 := newDurableNode(t, "n2", 2, leader2.Addr(), folDir)
	defer fol2.Close()
	waitFor(t, "follower rejoined restarted cluster", func() bool {
		return fol2.Applied() == leader2.Applied()
	})
	if got := queuedCount(t, fol2.DB()); got != len(ids)+5 {
		t.Fatalf("rejoined follower sees %d queued, want %d", got, len(ids)+5)
	}
}

// TestLaggedFollowerServedFromDiskLog forces the in-memory WAL to compact
// past a rejoining follower's position and checks the leader serves the gap
// from its disk log (or a file-streamed checkpoint) — either way the
// follower converges and the cluster keeps going.
func TestLaggedFollowerServedFromDiskLog(t *testing.T) {
	base := t.TempDir()
	leader := newDurableNode(t, "n1", 3, "", filepath.Join(base, "n1"))
	defer leader.Close()
	folDir := filepath.Join(base, "n2")
	fol := newDurableNode(t, "n2", 2, leader.Addr(), folDir)

	submitN(t, leader.DB(), 10)
	waitFor(t, "follower caught up", func() bool { return fol.Applied() == leader.Applied() })
	fol.Close()

	// Far more writes than the compaction floor retains, then force the
	// memory WAL down to it so the follower's position is long gone.
	submitN(t, leader.DB(), 600)
	leader.log.Compact(leader.log.LastIndex() - 8)

	fol2 := newDurableNode(t, "n2", 2, leader.Addr(), folDir)
	defer fol2.Close()
	waitFor(t, "lagged follower converged", func() bool {
		return fol2.Applied() == leader.Applied()
	})
	if got := queuedCount(t, fol2.DB()); got != 610 {
		t.Fatalf("lagged follower sees %d queued, want 610", got)
	}
}

// TestFollowerLogBytesEqualLeader is the property the one-codec design buys:
// an entry is encoded once, at commit, and those bytes are what the leader's
// disk log holds, what the stream carries and what the follower's disk log
// holds — so after a mixed workload the two logs past the follower's
// bootstrap point are byte-identical. Stronger than the snapshot equality of
// chaos invariant 4, and false the moment any hop re-encodes.
func TestFollowerLogBytesEqualLeader(t *testing.T) {
	base := t.TempDir()
	mk := func(id string, prio int, join string) *Node {
		n, err := New(Config{
			ID: id, Priority: prio, Join: join,
			Heartbeat: beat, ElectionTimeout: elect, LeaseTimeout: time.Minute,
			DataDir: filepath.Join(base, id), CheckpointEvery: -1, // keep the whole log
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		n.SetServiceAddr("svc-" + id)
		n.Start()
		return n
	}
	leader := mk("n1", 3, "")
	defer leader.Close()
	submitN(t, leader.DB(), 3) // history the follower gets by snapshot, not by log
	fol := mk("n2", 2, leader.Addr())
	defer fol.Close()
	waitFor(t, "follower bootstrapped", func() bool { return fol.Attached() && fol.Applied() == leader.Applied() })
	boot := fol.store.Stats().CheckpointIndex

	ctx, db := context.Background(), leader.DB()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var spare []int64
	for i := 0; i < 60; i++ {
		// A tagged submit is a multi-statement entry; the plain one stays
		// queued for the priority update and the cancel below.
		_, err := db.Submit(ctx, "exp", 1, fmt.Sprintf(`{"i": %d, "x": %g}`, i, float64(i)/7),
			core.WithTags("sweep", fmt.Sprintf("round-%d", i)), core.WithPriority(100+i))
		must(err)
		s, err := db.Submit(ctx, "exp", 2, "")
		must(err)
		spare = append(spare, s.ID)
		popped, err := db.QueryTasks(ctx, 1, 1, "pool-a")
		must(err)
		_, err = db.Report(ctx, popped.Tasks[0].ID, 1, fmt.Sprintf("result %d", i))
		must(err)
		_, err = db.PopResults(ctx, []int64{popped.Tasks[0].ID}, 1)
		must(err)
	}
	_, err := db.UpdatePriorities(ctx, spare[:20], []int{7})
	must(err)
	_, err = db.CancelTasks(ctx, spare[20:25])
	must(err)
	// A set-based write whose two statements carry different row counts: one
	// priority per id, five of the ids just canceled out of the queue.
	perID := make([]int, 30)
	for i := range perID {
		perID[i] = 1000 - i
	}
	_, err = db.UpdatePriorities(ctx, spare[10:40], perID)
	must(err)

	waitFor(t, "follower acked the leader's last entry", func() bool {
		return leader.Status().Followers["n2"] == leader.Applied()
	})
	want, ok := leader.log.RecordsSince(nil, boot)
	got, fok := fol.log.RecordsSince(nil, boot)
	if !ok || !fok {
		t.Fatalf("logs no longer reach back to the bootstrap at %d (leader %v, follower %v)", boot, ok, fok)
	}
	if len(want) < 300 || len(got) != len(want) {
		t.Fatalf("leader holds %d records after %d, follower %d; want equal and a few hundred", len(want), boot, len(got))
	}
	for i := range want {
		if got[i].Index != want[i].Index || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: follower's log bytes differ from the leader's\n leader   %x\n follower %x",
				want[i].Index, want[i].Data, got[i].Data)
		}
	}
	// Same bytes, same replay: every argument row reached the follower's queue.
	wantPrios, err := db.Priorities(ctx, spare)
	must(err)
	gotPrios, err := fol.DB().Priorities(ctx, spare)
	must(err)
	if len(wantPrios) != 55 || !reflect.DeepEqual(gotPrios, wantPrios) {
		t.Fatalf("follower queue priorities %v, leader %v (want 55 queued)", gotPrios, wantPrios)
	}
}

// TestSnapshotCoversLeadershipStart: a joiner that installs a snapshot takes
// the leader's term as the term of its newest entry, a promise that it holds
// everything the leader held when elected — entries committed under earlier
// leaderships among them. A durable leader whose newest checkpoint predates
// its promotion must therefore not bootstrap a joiner from that checkpoint
// plus a log tail: a stream broken before the tail lands leaves a node that
// claims the new term from a log missing committed entries, wins a vote from
// a node that holds them, and leads without them (chaos seed 6).
func TestSnapshotCoversLeadershipStart(t *testing.T) {
	base := t.TempDir()
	mk := func(id string, prio int, join string) *Node {
		n, err := New(Config{
			ID: id, Priority: prio, Join: join,
			Heartbeat: beat, ElectionTimeout: elect, LeaseTimeout: time.Minute,
			DataDir: filepath.Join(base, id), CheckpointEvery: -1,
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		n.SetServiceAddr("svc-" + id)
		n.Start()
		return n
	}
	n1 := mk("n1", 3, "")
	n2 := mk("n2", 2, n1.Addr())
	defer n2.Close()
	submitN(t, n1.DB(), 8)
	waitFor(t, "n2 caught up", func() bool { return n2.Applied() == n1.Applied() })
	if err := n2.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	submitN(t, n1.DB(), 2)
	waitFor(t, "n2 caught up past its checkpoint", func() bool { return n2.Applied() == n1.Applied() })
	n1.Close()
	if err := n2.ForcePromote(); err != nil {
		t.Fatal(err)
	}
	start := n2.Applied()

	hello := dialJoin(t, n2.Addr(), frame{Type: frameJoin, Peer: Peer{ID: "n3", ReplAddr: "127.0.0.1:1"}, Term: n2.Term()})
	if hello.Type != frameSnapshot || hello.SnapIndex < start {
		t.Fatalf("joiner bootstrapped with frame type %d at index %d; want a snapshot at or past the leadership's start %d",
			hello.Type, hello.SnapIndex, start)
	}
}

// segWriteFailFS is the real disk, except that writes to log segments fail
// while fail is set.
type segWriteFailFS struct {
	minisql.FS
	fail atomic.Bool
}

func (fs *segWriteFailFS) OpenFile(name string, flag int, perm os.FileMode) (minisql.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Ext(name) != ".wal" {
		return f, err
	}
	return segWriteFailFile{f, &fs.fail}, nil
}

type segWriteFailFile struct {
	minisql.File
	fail *atomic.Bool
}

func (f segWriteFailFile) Write(p []byte) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

// TestFollowerAckWaitsForItsDisk: a durable follower acks only entries its
// disk took, fsync or not. Without fsync its log flushes every append, and an
// append the disk refused leaves the log's sticky error; acking the entry
// anyway would count it toward the leader's quorum from a node whose restart
// forgets it. The leader runs a lease that cannot expire, so its watermark
// is its own for the whole check.
func TestFollowerAckWaitsForItsDisk(t *testing.T) {
	leader, err := New(Config{
		ID: "n1", Priority: 3,
		Heartbeat: beat, ElectionTimeout: elect, LeaseTimeout: time.Minute,
		WriteQuorum: 1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leader.SetServiceAddr("svc-n1")
	leader.Start()
	fsys := &segWriteFailFS{FS: minisql.OSFS}
	fol, err := New(Config{
		ID: "n2", Priority: 2, Join: leader.Addr(),
		Heartbeat: beat, ElectionTimeout: elect,
		DataDir: t.TempDir(), FS: fsys, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.SetServiceAddr("svc-n2")
	fol.Start()

	submitN(t, leader.DB(), 3)
	waitFor(t, "follower acked the leader's log", func() bool { return leader.Committed() == leader.Applied() })
	fsys.fail.Store(true)
	submitN(t, leader.DB(), 1)
	tok := leader.Applied()
	waitFor(t, "follower applied the entry", func() bool { return fol.Applied() == tok })
	diskErr := fol.store.WaitDurable(tok, time.Second)
	if diskErr == nil {
		t.Fatal("the follower's disk took the entry: no fault to check")
	}
	for deadline := time.Now().Add(4 * elect); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if got := leader.Committed(); got >= tok {
			t.Fatalf("leader committed %d: the follower acked entry %d its disk refused (%v)", got, tok, diskErr)
		}
	}
	if !leader.IsLeader() {
		t.Fatal("leader lost its leadership during the check")
	}
}

// parentMetaJSON is a meta.json as builds before the meta record wrote it
// (json.Marshal of the store's metadata, the view a json.Marshal of the
// replica's view with the leader it then also held), at term 7, applied term
// 6, with three peers.
const parentMetaJSON = `{"Version":1,"Term":7,"AppliedTerm":6,"View":{"Leader":{"ID":"n1","Priority":3,"ReplAddr":"10.0.0.1:7700","SvcAddr":"10.0.0.1:7654"},"Peers":[{"ID":"n1","Priority":3,"ReplAddr":"10.0.0.1:7700","SvcAddr":"10.0.0.1:7654"},{"ID":"n2","Priority":2,"ReplAddr":"10.0.0.2:7700","SvcAddr":"10.0.0.2:7654"},{"ID":"n3","Priority":1,"ReplAddr":"10.0.0.3:7700","SvcAddr":"10.0.0.3:7654"}]}}`

// TestParentMetaJSONPinned: a data dir whose metadata an older build wrote
// as meta.json opens to the same term, applied term and peers.
func TestParentMetaJSONPinned(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(parentMetaJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	// A follower that is not started: New restores the persisted state and
	// nothing moves it.
	n, err := New(Config{ID: "n2", Priority: 2, Join: "127.0.0.1:1", DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if term, applied := n.Term(), n.store.Meta().AppliedTerm; term != 7 || applied != 6 {
		t.Fatalf("term %d, applied term %d; want 7 and 6", term, applied)
	}
	peers := n.Peers()
	want := []Peer{
		{ID: "n1", Priority: 3, ReplAddr: "10.0.0.1:7700", SvcAddr: "10.0.0.1:7654"},
		{ID: "n2", Priority: 2, ReplAddr: n.Addr()}, // self: this process's own address
		{ID: "n3", Priority: 1, ReplAddr: "10.0.0.3:7700", SvcAddr: "10.0.0.3:7654"},
	}
	if !reflect.DeepEqual(peers, want) {
		t.Fatalf("peers %+v, want %+v", peers, want)
	}
}

// TestUnreadableViewRefused: a view that checks as a record but does not
// decode fails New instead of starting the node with no membership, whose
// majority denominator would be one.
func TestUnreadableViewRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := minisql.OpenStore(dir, minisql.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = s.SetMeta(minisql.Meta{Term: 3, AppliedTerm: 3, View: []byte(`{"Peers":[{"ID":`)})
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: "n2", Join: "127.0.0.1:1", DataDir: dir, Logf: t.Logf})
	if err == nil {
		n.Close()
		t.Fatal("New over an undecodable view succeeded")
	}
}

// renameCountFS is the real disk, counting renames onto the meta file.
type renameCountFS struct {
	minisql.FS
	metaRenames atomic.Int32
}

func (fs *renameCountFS) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == "meta" {
		fs.metaRenames.Add(1)
	}
	return fs.FS.Rename(oldpath, newpath)
}

// TestPromotionPublishesMetaOnce: the step that promotes a fresh durable
// leader moves its term and its view, and persists both in one publish.
func TestPromotionPublishesMetaOnce(t *testing.T) {
	fsys := &renameCountFS{FS: minisql.OSFS}
	n, err := New(Config{ID: "p1", DataDir: t.TempDir(), Fsync: true, FS: fsys, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if !n.IsLeader() || n.Term() != 1 {
		t.Fatalf("leader %v at term %d, want a leader at term 1", n.IsLeader(), n.Term())
	}
	if got := fsys.metaRenames.Load(); got != 1 {
		t.Fatalf("promotion published meta %d times, want 1", got)
	}
}
