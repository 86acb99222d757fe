package chaos

import (
	"flag"
	"math/rand"
	"testing"
	"time"
)

// -chaos.seed selects the schedule: the same seed replays the same fault
// sequence, which is how a CI failure is reproduced locally. The default is
// the fixed smoke seed CI runs on every push.
var chaosSeed = flag.Int64("chaos.seed", 1, "PRNG seed for the chaos schedule (same seed = same schedule)")

// -chaos.events scales the schedule length; the multi-seed CI job raises it.
var chaosEvents = flag.Int("chaos.events", 10, "number of fault events per chaos schedule")

// TestChaos runs the seeded random schedule: a 3-node quorum-1 cluster, a
// 3-session workload, a schedule-long watch subscription, and -chaos.events
// faults drawn from the weighted mix (partitions, crashes, resets, torn
// writes, disk faults), then heals and checks the six invariants (the five
// state invariants plus the watcher's exactly-once terminal delivery). Any
// violation prints the replay seed.
func TestChaos(t *testing.T) {
	seed := *chaosSeed
	c := NewCluster(t, 3, 1, seed)
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	w := c.StartWatcher()
	c.StartWorkload(3)
	for i := 0; i < *chaosEvents; i++ {
		what := c.Fault(rng)
		t.Logf("fault %d/%d: %s", i+1, *chaosEvents, what)
		time.Sleep(time.Duration(30+rng.Intn(120)) * time.Millisecond)
	}
	c.StopWorkload()
	lead := c.HealAndVerify()
	if w != nil {
		w.DrainAndVerify(lead)
	}
	if n := c.AckedWrites(); n == 0 {
		t.Fatalf("workload recorded no acknowledged writes: the schedule starved it and verified nothing (seed %d)", seed)
	} else {
		t.Logf("verified %d acked writes across the schedule (seed %d)", n, seed)
	}
}

// TestChaosCombined is the scripted acceptance schedule: a partial partition
// (leader cut off from one follower, relay intact), a leader crash, and a
// disk fsync fault on the recovering node — concurrently with a workload —
// must still pass the five state invariants after healing (of the suite's
// six; this schedule runs no watcher, so the sixth, watch exactly-once, is
// TestChaos's to check).
func TestChaosCombined(t *testing.T) {
	seed := *chaosSeed
	c := NewCluster(t, 3, 1, seed)
	defer c.Close()
	c.StartWorkload(3)
	settle := func() { time.Sleep(300 * time.Millisecond) }
	settle()

	// Partial partition: sever leader <-> lowest-priority follower; both can
	// still reach the middle node, so replication limps on through quorum
	// with the reachable follower.
	lead := c.Leader()
	if lead < 0 {
		t.Fatal("no leader at schedule start")
	}
	other := (lead + 2) % 3
	c.Net.BlockBoth(c.Nodes[lead].ID, c.Nodes[other].ID)
	t.Logf("partial partition: %s x %s", c.Nodes[lead].ID, c.Nodes[other].ID)
	settle()

	// Leader crash mid-partition, with a torn append armed so its WAL tail
	// dies mid-record: recovery must truncate the torn tail, the survivors
	// must elect, and every write acked before the crash must survive.
	c.Nodes[lead].FS.TearAppends(1)
	c.Crash(lead)
	t.Logf("crashed leader %s (torn append armed)", c.Nodes[lead].ID)
	settle()

	// Disk fault on the restarting node: its first recovery attempt runs
	// with failing fsyncs (sticky WAL error), then the fault clears and a
	// second restart recovers cleanly.
	c.Restart(lead)
	c.Nodes[lead].FS.FailFsync(true)
	t.Logf("restarted %s with failing fsyncs", c.Nodes[lead].ID)
	settle()
	c.Crash(lead)
	c.Restart(lead)
	t.Logf("restarted %s with healthy disk", c.Nodes[lead].ID)
	settle()

	c.StopWorkload()
	c.HealAndVerify()
	if n := c.AckedWrites(); n == 0 {
		t.Fatal("workload recorded no acknowledged writes: nothing was verified")
	} else {
		t.Logf("verified %d acked writes", n)
	}
}

// TestChaosCrashRecovery ports the CI kill -9 smoke into the runner: a
// leader crash and cold restart in the middle of a live workload. Writes
// acked before and after the crash must all survive, and the restarted node
// must converge byte-for-byte with the cluster.
func TestChaosCrashRecovery(t *testing.T) {
	c := NewCluster(t, 3, 1, *chaosSeed)
	defer c.Close()
	c.StartWorkload(2)
	time.Sleep(400 * time.Millisecond)

	lead := c.Leader()
	if lead < 0 {
		t.Fatal("no leader")
	}
	before := c.AckedWrites()
	c.Crash(lead)
	time.Sleep(200 * time.Millisecond) // workload rides the failover
	c.Restart(lead)
	time.Sleep(400 * time.Millisecond) // workload keeps writing post-restart

	c.StopWorkload()
	c.HealAndVerify()
	after := c.AckedWrites()
	if before == 0 || after <= before {
		t.Fatalf("workload did not span the crash: %d acks before, %d total", before, after)
	}
	t.Logf("%d acks before crash, %d after — all verified present", before, after-before)
}

// TestNetworkPrimitives pins the transport's fault semantics without a
// cluster: partitioned dials fail, healed dials succeed, one-way blocks
// swallow writes in only that direction.
func TestNetworkPrimitives(t *testing.T) {
	nw := NewNetwork()
	ln, err := nw.Listener("b")("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 64)
				for {
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					conn.Write(buf[:n])
				}
			}()
		}
	}()

	dial := nw.Dialer("a")
	conn, err := dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("healthy dial: %v", err)
	}
	conn.Write([]byte("hi"))
	buf := make([]byte, 2)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("healthy echo: %v", err)
	}

	nw.BlockBoth("a", "b")
	if _, err := dial("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("dial across a partition succeeded")
	}
	if nw.DialsBlocked.Load() == 0 {
		t.Fatal("blocked dial not counted")
	}
	// The established connection was closed by the partition.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read on a partitioned connection succeeded")
	}

	nw.Heal()
	conn2, err := dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer conn2.Close()

	// One-way block a->b: a's write reports success but vanishes (the
	// sender's view of a one-way partition), and the stream dies rather
	// than resuming with a byte gap after healing.
	nw.Block("a", "b")
	if _, err := conn2.Write([]byte("hi")); err != nil {
		t.Fatalf("write into one-way block errored: %v", err)
	}
	conn2.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := conn2.Read(buf); err == nil {
		t.Fatal("swallowed write still echoed back")
	}
	if nw.WritesDropped.Load() == 0 && nw.ConnsReset.Load() == 0 {
		t.Fatal("one-way block neither dropped a write nor closed the connection")
	}
	nw.Heal()
	conn3, err := dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer conn3.Close()
	conn3.Write([]byte("yo"))
	conn3.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn3.Read(buf); err != nil {
		t.Fatalf("echo after heal: %v", err)
	}
}
