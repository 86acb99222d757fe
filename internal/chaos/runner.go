package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
	"osprey/internal/replica"
	"osprey/internal/service"
)

// The deterministic chaos runner: a real cluster (replica nodes + service
// servers, durable stores on disk, fsync on) whose network and filesystems
// are the fault-injecting implementations above, a client workload recording
// every acknowledged write, and a seeded-PRNG schedule interleaving faults
// with that workload. After the schedule, the cluster is healed and the
// suite's global invariants are checked — these five, plus watch exactly-once
// (invariant 6, watcher.go):
//
//  1. No acked write lost — every payload whose submit was acknowledged is
//     present in the final state.
//  2. No dedup double-submit — no dedup key occupies two rows, no matter how
//     often retries re-sent it.
//  3. Commit-token monotonicity — the tokens a session observes never go
//     backwards.
//  4. Replica byte-equivalence — once converged, every node's engine
//     snapshot is byte-identical.
//  5. Recovery terminates — after healing, the cluster reaches exactly one
//     leader and equal applied indexes within a bounded wait.
//
// Every violation message carries the schedule's seed, so a failure replays
// exactly: go test ./internal/chaos -run TestChaos -chaos.seed=N. CI runs
// seed 1 under -race with the tier-1 tests and sweeps seeds 1-10 in a
// separate job. A seed fixes the fault schedule, not the interleaving, so a
// seed that fails sometimes is a rate, not a verdict: compare rates over
// repeated runs.

// Node is one cluster member under the runner's control. It can be crashed
// (process death: everything in memory is gone, the data directory survives)
// and restarted on its original addresses.
type Node struct {
	ID   string
	Prio int
	Dir  string
	FS   *FaultFS

	mu       sync.Mutex
	rn       *replica.Node
	srv      *service.Server
	replAddr string // pinned at first start so peers can redial after restarts
	svcAddr  string
}

// Replica returns the live replica node, or nil while crashed.
func (n *Node) Replica() *replica.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rn
}

// SvcAddr returns the node's (pinned) service address.
func (n *Node) SvcAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.svcAddr
}

// Alive reports whether the node is currently running.
func (n *Node) Alive() bool { return n.Replica() != nil }

// Cluster is the chaos harness around a running osprey cluster.
type Cluster struct {
	t      testing.TB
	seed   int64
	Net    *Network
	Nodes  []*Node
	quorum int

	// The workload ledger: payload -> commit token for every acknowledged
	// submit, and the invariant violations observed while running.
	mu         sync.Mutex
	acked      map[string]uint64
	violations []string

	wwg  sync.WaitGroup
	stop chan struct{}
}

// Timing mirrors the replica test harness: fast heartbeats so elections and
// leases resolve in tens of milliseconds.
const (
	beat  = 10 * time.Millisecond
	elect = 6 * beat
)

// NewCluster starts nodes cluster members (node 0 bootstraps as leader,
// priorities descending), durable with fsync in per-node temp directories,
// all traffic through a chaos Network and all disk I/O through per-node
// FaultFS instances. It returns once every member sees the full membership.
func NewCluster(t testing.TB, nodes, quorum int, seed int64) *Cluster {
	t.Helper()
	c := &Cluster{
		t: t, seed: seed, Net: NewNetwork(), quorum: quorum,
		acked: make(map[string]uint64),
		stop:  make(chan struct{}),
	}
	dir := t.TempDir()
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("n%d", i+1)
		n := &Node{ID: id, Prio: nodes - i, Dir: dir + "/" + id, FS: NewFaultFS()}
		join := ""
		if i > 0 {
			c.Nodes[0].mu.Lock()
			join = c.Nodes[0].replAddr
			c.Nodes[0].mu.Unlock()
		}
		c.startNode(n, join)
		c.Nodes = append(c.Nodes, n)
	}
	c.waitFor("full membership", 10*time.Second, func() bool {
		for _, n := range c.Nodes {
			rn := n.Replica()
			if rn == nil || len(rn.Peers()) != nodes {
				return false
			}
		}
		return true
	})
	return c
}

// startNode boots (or reboots) a member. First boot binds ephemeral ports
// and pins them; restarts rebind the pinned addresses so peers and clients
// redial successfully.
func (c *Cluster) startNode(n *Node, join string) {
	c.t.Helper()
	n.mu.Lock()
	replAddr, svcAddr := n.replAddr, n.svcAddr
	n.mu.Unlock()
	if replAddr == "" {
		replAddr, svcAddr = "127.0.0.1:0", "127.0.0.1:0"
	}
	rn, err := replica.New(replica.Config{
		ID: n.ID, Priority: n.Prio, Addr: replAddr, Join: join,
		WriteQuorum: c.quorum, DataDir: n.Dir, Fsync: true, CheckpointEvery: 16,
		Heartbeat: beat, ElectionTimeout: elect,
		Dialer: c.Net.Dialer(n.ID), Listen: c.Net.Listener(n.ID), FS: n.FS,
		Logf: c.t.Logf,
	})
	if err != nil {
		c.t.Fatalf("start %s: %v", n.ID, err)
	}
	srv, err := service.ServeNode(rn, svcAddr, service.WithListener(c.Net.Listener(n.ID)))
	if err != nil {
		rn.Close()
		c.t.Fatalf("serve %s: %v", n.ID, err)
	}
	n.mu.Lock()
	n.rn, n.srv = rn, srv
	n.replAddr, n.svcAddr = rn.Addr(), srv.Addr()
	n.mu.Unlock()
}

// Crash kills node i abruptly: the server and replica close (in-memory
// state, connections, and leadership are gone) but the data directory stays,
// exactly the state a kill -9 leaves behind. No-op if already down.
func (c *Cluster) Crash(i int) {
	n := c.Nodes[i]
	n.mu.Lock()
	rn, srv := n.rn, n.srv
	n.rn, n.srv = nil, nil
	n.mu.Unlock()
	if rn == nil {
		return
	}
	srv.Close()
	rn.Close()
	n.FS.Clear() // armed disk faults die with the process
}

// Restart brings a crashed node back on its pinned addresses, recovering
// from its data directory and rejoining through any live peer. No-op if
// running.
func (c *Cluster) Restart(i int) {
	n := c.Nodes[i]
	if n.Alive() {
		return
	}
	join := ""
	for j, p := range c.Nodes {
		if j != i && p.Alive() {
			p.mu.Lock()
			join = p.replAddr
			p.mu.Unlock()
			break
		}
	}
	if join == "" {
		// Everyone else is down too: rejoin via any pinned address; the
		// follower loop keeps probing until a peer returns.
		for j, p := range c.Nodes {
			if j != i {
				p.mu.Lock()
				join = p.replAddr
				p.mu.Unlock()
				break
			}
		}
	}
	c.startNode(n, join)
}

// Leader returns the index of the live node currently claiming leadership,
// or -1.
func (c *Cluster) Leader() int {
	for i, n := range c.Nodes {
		if rn := n.Replica(); rn != nil && rn.IsLeader() {
			return i
		}
	}
	return -1
}

// SvcAddrs lists every member's service address.
func (c *Cluster) SvcAddrs() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.SvcAddr()
	}
	return out
}

// Close tears the cluster down.
func (c *Cluster) Close() {
	for i := range c.Nodes {
		c.Crash(i)
	}
}

// fail records an invariant violation. The message leads with the replay
// instructions — a chaos failure nobody can reproduce is noise.
func (c *Cluster) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	c.violations = append(c.violations, msg)
	c.mu.Unlock()
	c.t.Errorf("chaos invariant violated (replay: go test ./internal/chaos -run %s -chaos.seed=%d): %s",
		c.t.Name(), c.seed, msg)
}

func (c *Cluster) waitFor(what string, timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.fail("%s: not reached within %v", what, timeout)
	return false
}

// StartWorkload launches workers client sessions, each submitting
// dedup-keyed payloads "w<worker>-<seq>" through its own failover client and
// recording every acknowledged write in the ledger. Each worker checks
// invariant 3 (token monotonicity) inline on its own session. Every fifth
// iteration pops a task and reports a result, so the queue-mutating ops run
// under faults too. Stop with StopWorkload.
func (c *Cluster) StartWorkload(workers int) {
	addrs := c.SvcAddrs()
	for w := 0; w < workers; w++ {
		c.wwg.Add(1)
		go func(w int) {
			defer c.wwg.Done()
			cc, err := service.DialCluster(addrs...)
			if err != nil {
				c.fail("worker %d: dial cluster: %v", w, err)
				return
			}
			defer cc.Close()
			cc.FailTimeout = 2 * time.Second
			cc.DialTimeout = 500 * time.Millisecond
			var lastToken uint64
			for seq := 0; ; seq++ {
				select {
				case <-c.stop:
					return
				default:
				}
				payload := fmt.Sprintf("w%d-%d", w, seq)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				res, err := cc.Submit(ctx, "chaos", 0, payload, core.WithDedupKey(payload))
				cancel()
				if err != nil {
					continue // ambiguous: may or may not have landed, both legal
				}
				if res.Token < lastToken {
					c.fail("worker %d: commit token went backwards: %d after %d (payload %s)",
						w, res.Token, lastToken, payload)
				}
				lastToken = res.Token
				c.mu.Lock()
				c.acked[payload] = res.Token
				c.mu.Unlock()
				if seq%5 == 4 {
					ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
					if tasks, err := cc.QueryTasks(ctx, 0, 1, "pool"); err == nil && len(tasks.Tasks) > 0 {
						cc.Report(ctx, tasks.Tasks[0].ID, 0, "done")
					}
					cancel()
				}
			}
		}(w)
	}
}

// StopWorkload stops the workers and waits for their last calls to resolve.
func (c *Cluster) StopWorkload() {
	close(c.stop)
	c.wwg.Wait()
}

// Fault injects one random fault drawn from rng. The weights skew toward
// partitions and crashes — the faults with the richest failure modes —
// with resets, torn writes, latency, disk faults, and heals mixed in.
func (c *Cluster) Fault(rng *rand.Rand) string {
	alive := []int{}
	for i, n := range c.Nodes {
		if n.Alive() {
			alive = append(alive, i)
		}
	}
	pick := func() int { return alive[rng.Intn(len(alive))] }
	ids := func(idx []int) []string {
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = c.Nodes[j].ID
		}
		return out
	}
	switch f := rng.Intn(100); {
	case f < 20: // full split at a random cut
		perm := rng.Perm(len(c.Nodes))
		cut := 1 + rng.Intn(len(c.Nodes)-1)
		c.Net.Partition(ids(perm[:cut]), ids(perm[cut:]))
		return fmt.Sprintf("partition %v | %v", ids(perm[:cut]), ids(perm[cut:]))
	case f < 35: // partial partition: one pair severed, relays intact
		a, b := rng.Intn(len(c.Nodes)), rng.Intn(len(c.Nodes)-1)
		if b >= a {
			b++
		}
		c.Net.BlockBoth(c.Nodes[a].ID, c.Nodes[b].ID)
		return fmt.Sprintf("partial partition %s x %s", c.Nodes[a].ID, c.Nodes[b].ID)
	case f < 45: // one-way partition
		a, b := rng.Intn(len(c.Nodes)), rng.Intn(len(c.Nodes)-1)
		if b >= a {
			b++
		}
		c.Net.Block(c.Nodes[a].ID, c.Nodes[b].ID)
		return fmt.Sprintf("one-way block %s -> %s", c.Nodes[a].ID, c.Nodes[b].ID)
	case f < 53: // added latency
		d := time.Duration(1+rng.Intn(3)) * time.Millisecond
		c.Net.SetLatency(d)
		return fmt.Sprintf("latency %v", d)
	case f < 63: // connection resets
		i := pick()
		c.Net.ResetNode(c.Nodes[i].ID)
		return "reset conns of " + c.Nodes[i].ID
	case f < 71: // torn network writes
		i := pick()
		c.Net.TearWrites(c.Nodes[i].ID, 1+rng.Intn(2))
		return "torn writes from " + c.Nodes[i].ID
	case f < 85: // crash + restart, sometimes with a torn disk append first
		i := pick()
		what := "crash/restart " + c.Nodes[i].ID
		if rng.Intn(3) == 0 {
			c.Nodes[i].FS.TearAppends(1)
			what += " (torn append)"
		}
		c.Crash(i)
		time.Sleep(time.Duration(50+rng.Intn(150)) * time.Millisecond)
		c.Restart(i)
		return what
	case f < 93: // disk fault: fsync failure or ENOSPC, then crash/restart
		i := pick()
		what := "fsync failure on " + c.Nodes[i].ID
		if rng.Intn(2) == 0 {
			c.Nodes[i].FS.FailWrites(true)
			what = "disk full on " + c.Nodes[i].ID
		} else {
			c.Nodes[i].FS.FailFsync(true)
		}
		time.Sleep(time.Duration(50+rng.Intn(100)) * time.Millisecond)
		c.Crash(i) // the only way out of a dead disk is a restart
		c.Restart(i)
		return what
	default:
		c.Net.Heal()
		return "heal"
	}
}

// HealAndVerify is the end of every schedule: clear all faults, restart any
// crashed node, then check the five state invariants of the suite's six (the
// sixth, watch exactly-once, is Watcher.DrainAndVerify's, which takes the
// leader index returned here).
func (c *Cluster) HealAndVerify() int {
	c.t.Helper()
	c.Net.Heal()
	for i, n := range c.Nodes {
		n.FS.Clear()
		if !n.Alive() {
			c.Restart(i)
		}
	}
	// Invariant 5: recovery terminates — one leader, every other node an
	// attached follower of that leader at its term, applied indexes equal,
	// and the leader holding its ack of that index. Equal applied alone is NOT
	// convergence: a node still mid-election can hold a divergent history of
	// coincidentally equal length, and only its (re)join to the leader — which
	// the term check proves happened — forces the snapshot that heals it. Nor
	// is the join alone: the hello adopts the leader's term before the
	// snapshot is installed, and the follower acks only once it is.
	converged := c.waitFor("recovery terminated (one leader, followers attached, applied converged)", 30*time.Second, func() bool {
		lead := -1
		for i, n := range c.Nodes {
			rn := n.Replica()
			if rn == nil {
				return false
			}
			if rn.IsLeader() {
				if lead >= 0 {
					return false
				}
				lead = i
			}
		}
		if lead < 0 {
			return false
		}
		leader := c.Nodes[lead].Replica()
		for i, n := range c.Nodes {
			if i == lead {
				continue
			}
			rn := n.Replica()
			if rn.Status().LeaderID != leader.ID() || rn.Term() != leader.Term() || rn.Applied() != leader.Applied() ||
				leader.Status().Followers[n.ID] != leader.Applied() {
				return false
			}
		}
		return true
	})
	if !converged {
		var buf bytes.Buffer
		for _, n := range c.Nodes {
			fmt.Fprintf(&buf, "--- %s (alive=%v) ---\n", n.ID, n.Alive())
			if rn := n.Replica(); rn != nil {
				rn.Status().WriteStatus(&buf)
			}
		}
		c.t.Logf("cluster state at convergence failure:\n%s", buf.String())
		return -1
	}
	lead := c.Leader()
	if lead < 0 {
		c.fail("no leader after convergence")
		return -1
	}

	// Invariants 1 + 2 on the leader's final state: every acked payload
	// present, no dedup key present twice.
	eng := c.Nodes[lead].Replica().DB().Engine()
	payloads := make(map[string]int)
	dedups := make(map[string]int)
	if err := selectRows(eng, "SELECT payload, dedup_key FROM eq_tasks", func(row []minisql.Value) {
		payloads[row[0].AsText()]++
		if !row[1].IsNull() {
			dedups[row[1].AsText()]++
		}
	}); err != nil {
		c.fail("reading final state: %v", err)
		return lead
	}
	c.mu.Lock()
	acked := make(map[string]uint64, len(c.acked))
	for k, v := range c.acked {
		acked[k] = v
	}
	c.mu.Unlock()
	for payload, token := range acked {
		if payloads[payload] == 0 {
			c.fail("acked write lost: payload %s (token %d) missing from final state", payload, token)
		}
	}
	for key, n := range dedups {
		if n > 1 {
			c.fail("dedup double-submit: key %s present %d times", key, n)
		}
	}

	// Invariant 4: every replica's engine snapshot is byte-identical.
	var ref bytes.Buffer
	if err := c.Nodes[lead].Replica().DB().Snapshot(&ref); err != nil {
		c.fail("snapshot leader %s: %v", c.Nodes[lead].ID, err)
		return lead
	}
	for i, n := range c.Nodes {
		if i == lead {
			continue
		}
		var buf bytes.Buffer
		if err := n.Replica().DB().Snapshot(&buf); err != nil {
			c.fail("snapshot %s: %v", n.ID, err)
			continue
		}
		if !bytes.Equal(ref.Bytes(), buf.Bytes()) {
			c.fail("replica divergence: %s snapshot (%d bytes) != leader %s snapshot (%d bytes)",
				n.ID, buf.Len(), c.Nodes[lead].ID, ref.Len())
		}
	}
	return lead
}

// AckedWrites returns how many writes the workload recorded as acknowledged
// — schedules assert on it so a run that starved the workload (and thus
// verified nothing) fails loudly instead of passing vacuously.
func (c *Cluster) AckedWrites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.acked)
}

// selectRows runs a SELECT without arguments on eng and calls fn with each
// row; the row is valid only during the call.
func selectRows(eng *minisql.Engine, sql string, fn func(row []minisql.Value)) error {
	h, err := eng.Prepare(sql)
	if err != nil {
		return err
	}
	_, err = eng.TxLogged(func(tx *minisql.Tx) error {
		return tx.Query(h, nil, func(row []minisql.Value) error {
			fn(row)
			return nil
		})
	})
	return err
}
