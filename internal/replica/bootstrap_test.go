package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"osprey/internal/codec"
	"osprey/internal/core"
)

// bootstrapRows is how many tasks TestBootstrapLargeDatabase loads before a
// follower joins (fewer under -race, see race_test.go).
var bootstrapRows = 200_000

// tap watches the frames a follower reads from its peers, through
// Config.Dialer: the largest body seen, the chunk frames per connection and,
// while cutAfter > 0, it cuts a connection at the end of its cutAfter-th
// chunk frame, the leader dying mid-bootstrap as the follower sees it.
type tap struct {
	mu       sync.Mutex
	cutAfter int
	cuts     int
	dials    int
	maxBody  int
	chunks   []int // per stream that carried chunks, how many
}

func (tp *tap) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	tp.get(func() { tp.dials++ })
	return &tapConn{Conn: conn, tp: tp}, nil
}

func (tp *tap) get(f func()) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	f()
}

type tapConn struct {
	net.Conn
	tp      *tap
	pending []byte // bytes read that end no frame yet
	chunks  int
	cut     bool
}

func (c *tapConn) Read(p []byte) (int, error) {
	if c.cut {
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(p)
	start := len(c.pending) // where p's bytes begin in pending
	c.pending = append(c.pending, p[:n]...)
	c.tp.mu.Lock()
	defer c.tp.mu.Unlock()
	for {
		size, k := binary.Uvarint(c.pending)
		if k <= 0 || uint64(len(c.pending)-k) < size {
			return n, err
		}
		end := k + int(size)
		c.tp.maxBody = max(c.tp.maxBody, int(size))
		if size > 0 && frameType(c.pending[k]) == frameChunk {
			if c.chunks++; c.chunks == 1 {
				c.tp.chunks = append(c.tp.chunks, 0)
			}
			c.tp.chunks[len(c.tp.chunks)-1] = c.chunks
			if c.chunks == c.tp.cutAfter {
				c.tp.cuts++
				c.cut = true
				c.Conn.Close()
				return end - start, nil
			}
		}
		c.pending = c.pending[end:]
		start -= end
	}
}

// snapshotOf is a database's checkpoint bytes.
func snapshotOf(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := db.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// dirFiles lists the checkpoint and tmp files in a data directory.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, pat := range []string{"checkpoint-*.snap", "*.tmp"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m {
			out = append(out, filepath.Base(p))
		}
	}
	return out
}

// TestBootstrapCutMidStreamLeavesFollowerWhole: a durable follower with a
// history of its own joins a leader that must bootstrap it, and the stream
// dies after k chunk frames, the last chunk or every chunk but the end frame
// included. Each cut leaves the follower as it was: its engine snapshots to
// the same bytes, no checkpoint is published and, once it closes, no tmp file
// is left. When the stream stops being cut, the next join installs.
func TestBootstrapCutMidStreamLeavesFollowerWhole(t *testing.T) {
	// The follower never acks while it is cut: a lease that cannot expire
	// keeps its leader leading.
	leader, err := New(Config{ID: "n1", Priority: 3, Heartbeat: beat, ElectionTimeout: elect,
		LeaseTimeout: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	leader.SetServiceAddr("svc-n1")
	leader.Start()
	defer leader.Close()
	submitBatch(t, leader.DB(), 500, 8000)
	var count chunkCounter
	if err := leader.eng.Snapshot(&count); err != nil {
		t.Fatal(err)
	}
	chunks := int(count)
	if chunks < 3 {
		t.Fatalf("the leader's checkpoint is %d chunks, want a few", chunks)
	}

	for _, k := range []int{1, chunks / 2, chunks} {
		t.Run(fmt.Sprintf("after %d of %d chunks", k, chunks), func(t *testing.T) {
			dir := t.TempDir()
			// The follower's own history: a standalone durable database that
			// checkpointed, so its data dir holds a checkpoint and a log.
			own, err := core.Open(dir, core.OpenOptions{CheckpointEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			submitN(t, own, 10)
			own.Close()

			tp := &tap{cutAfter: k}
			open := func() *Node {
				n, err := New(Config{
					ID: "n2", Priority: 2, Join: leader.Addr(),
					Heartbeat: beat, ElectionTimeout: elect,
					DataDir: dir, CheckpointEvery: 4, Dialer: tp.dial, Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				n.SetServiceAddr("svc-n2")
				return n
			}
			fol := open()
			before, files := snapshotOf(t, fol.DB()), dirFiles(t, dir)
			fol.Start()
			waitFor(t, "two cut bootstraps", func() (ok bool) {
				tp.get(func() { ok = tp.cuts >= 2 })
				return ok
			})
			if got := fol.met.snapsInstall.Value(); got != 0 {
				t.Fatalf("a cut stream installed %d snapshots", got)
			}
			if !bytes.Equal(snapshotOf(t, fol.DB()), before) {
				t.Fatal("a cut bootstrap changed the follower's engine")
			}
			fol.Close()
			if got := dirFiles(t, dir); !equalStrings(got, files) {
				t.Fatalf("data dir holds %v after cut bootstraps, want %v", got, files)
			}

			tp.get(func() { tp.cutAfter = 0 })
			fol = open()
			defer fol.Close()
			if got := dirFiles(t, dir); !equalStrings(got, files) {
				t.Fatalf("data dir holds %v after reopen, want %v", got, files)
			}
			fol.Start()
			waitFor(t, "the uncut bootstrap", func() bool {
				return fol.met.snapsInstall.Value() == 1 && fol.Applied() == leader.Applied()
			})
			if !bytes.Equal(snapshotOf(t, fol.DB()), snapshotOf(t, leader.DB())) {
				t.Fatal("the follower's engine differs from the leader's after the bootstrap")
			}
		})
	}
}

// chunkCounter counts the writes a checkpoint is made of: the chunk frames a
// leader sends for it.
type chunkCounter int

func (c *chunkCounter) Write(p []byte) (int, error) {
	*c++
	return len(p), nil
}

func equalStrings(a, b []string) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// submitBatch loads n tasks onto a leader, batch at a time.
func submitBatch(t *testing.T, db *core.DB, batch, n int) {
	t.Helper()
	payloads := make([]string, batch)
	for i := range payloads {
		payloads[i] = fmt.Sprintf(`{"x": %d, "pad": "%032d"}`, i, i)
	}
	for done := 0; done < n; done += batch {
		if _, err := db.SubmitBatch(context.Background(), "exp", 1+done%3, payloads[:min(batch, n-done)], nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootstrapLargeDatabase: a fresh durable follower bootstraps a
// bootstrapRows-task database from a live leader, with this package's
// timings and with the defaults, and the stream it installed over stays up:
// no deadline of the stream, nor the leader's lease, runs out past the
// install. Every frame it reads fits the entries budget plus one record, and
// what it installed — its engine and its checkpoint file — is the leader's
// snapshot at the index it joined at, byte for byte.
func TestBootstrapLargeDatabase(t *testing.T) {
	for _, tc := range []struct {
		name               string
		beat, elect, lease time.Duration
	}{
		// A leader of two hears nothing from its follower between the
		// bootstrap's last chunk and the install's ack, which at this size
		// takes longer than this package's 120 ms lease: a lease that cannot
		// expire keeps it leading.
		{"test timings", beat, elect, time.Minute},
		{"defaults", 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(id string, prio int, join, dir string, dial DialFunc) *Node {
				n, err := New(Config{
					ID: id, Priority: prio, Join: join,
					Heartbeat: tc.beat, ElectionTimeout: tc.elect, LeaseTimeout: tc.lease,
					DataDir: dir, CheckpointEvery: -1, Dialer: dial, Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				n.SetServiceAddr("svc-" + id)
				n.Start()
				return n
			}
			leader := mk("n1", 3, "", "", nil)
			defer leader.Close()
			submitBatch(t, leader.DB(), 1000, bootstrapRows)
			want := snapshotOf(t, leader.DB())
			at := leader.Applied()

			dir := t.TempDir()
			tp := &tap{}
			t0 := time.Now()
			fol := mk("n2", 2, leader.Addr(), dir, tp.dial)
			defer fol.Close()
			deadline := time.Now().Add(time.Minute)
			for fol.met.snapsInstall.Value() == 0 || fol.Applied() != at {
				if time.Now().After(deadline) {
					t.Fatalf("no bootstrap of %d rows within a minute", bootstrapRows)
				}
				time.Sleep(5 * time.Millisecond)
			}
			var joins int
			tp.get(func() { joins = tp.dials })
			t.Logf("%d rows, %d checkpoint bytes: bootstrapped in %v", bootstrapRows, len(want), time.Since(t0))
			if got := fol.met.snapsInstall.Value(); got != 1 {
				t.Fatalf("%d installs, want one", got)
			}
			time.Sleep(4 * max(tc.elect, 200*time.Millisecond)) // an ack window past the install
			var maxBody, dials int
			var chunks []int
			tp.get(func() { maxBody, dials, chunks = tp.maxBody, tp.dials, tp.chunks })
			if dials != joins || !leader.IsLeader() {
				t.Fatalf("the follower dialed again after its install (%d dials, %d before); leader still leads: %v",
					dials, joins, leader.IsLeader())
			}
			if limit := codec.KeepBytes + recordBound; maxBody > limit {
				t.Fatalf("a %d-byte frame body, over the budget plus one record (%d)", maxBody, limit)
			}
			t.Logf("largest frame body %d bytes; chunk frames per stream %v", maxBody, chunks)
			if len(chunks) == 0 || chunks[len(chunks)-1] < 2 {
				t.Fatalf("the snapshot came in %v chunk frames per stream, want several", chunks)
			}
			if !bytes.Equal(snapshotOf(t, fol.DB()), want) {
				t.Fatal("the follower's engine is not the leader's snapshot")
			}
			path, idx, ok := fol.store.CheckpointFile()
			if !ok || idx != at {
				t.Fatalf("installed checkpoint at %d (ok %v), want %d", idx, ok, at)
			}
			file, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(file, want) {
				t.Fatalf("the installed checkpoint file (%d bytes, err %v) is not the leader's snapshot (%d bytes)",
					len(file), err, len(want))
			}
		})
	}
}

// recordBound is the largest record this package's test databases hold
// framed, with a frame's own fields: a checkpoint rows record closes before
// 64 KiB, and no task is larger.
const recordBound = 64<<10 + 8 + 64
