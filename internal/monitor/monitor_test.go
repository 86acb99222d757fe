package monitor

import (
	"context"
	"errors"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/pool"
)

const waitMax = 5 * time.Second

func newDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(waitMax)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestHeartbeatLifecycle(t *testing.T) {
	db := newDB(t)
	m := New(db, 20*time.Millisecond)
	defer m.Stop()
	m.Register("p1", nil)
	if !m.Alive("p1") {
		t.Fatal("registered pool not alive")
	}
	// Keep heartbeating: stays alive across several windows.
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		m.Heartbeat("p1")
	}
	if !m.Alive("p1") {
		t.Fatal("heartbeating pool died")
	}
	// Stop heartbeating: suspect, then dead.
	waitFor(t, func() bool {
		pools := m.Pools()
		return len(pools) == 1 && pools[0].State == PoolDead
	}, "pool never declared dead")
}

func TestDeadPoolTasksRequeued(t *testing.T) {
	db := newDB(t)
	// A pool takes tasks and crashes without reporting.
	for i := 0; i < 5; i++ {
		db.Submit(context.Background(), "e", 1, "x")
	}
	pctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	if _, err := db.QueryTasks(pctx, 1, 5, "doomed"); err != nil {
		t.Fatal(err)
	}
	m := New(db, 15*time.Millisecond)
	defer m.Stop()
	m.Register("doomed", nil)
	// No heartbeats: the sweep declares it dead and requeues.
	waitFor(t, func() bool {
		for _, p := range m.Pools() {
			if p.Name == "doomed" && p.State == PoolDead && p.Requeued == 5 {
				return true
			}
		}
		return false
	}, "dead pool's tasks not requeued")
	counts, _ := db.Counts(context.Background(), "e")
	if counts[core.StatusQueued] != 5 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestTerminate(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 10; i++ {
		db.Submit(context.Background(), "e", 1, "x")
	}
	hang := make(chan struct{})
	p, err := pool.New(db, pool.Config{Name: "victim", Workers: 2, BatchSize: 4, WorkType: 1},
		func(string) (string, error) { <-hang; return "late", nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx) }()
	waitFor(t, func() bool { return p.Owned() >= 2 }, "pool never took tasks")

	m := New(db, time.Second)
	defer m.Stop()
	m.Register("victim", cancel)
	n, err := m.Terminate("victim")
	if err != nil {
		t.Fatalf("Terminate: %v", err)
	}
	close(hang)
	<-done
	if n == 0 {
		t.Fatal("no tasks requeued on termination")
	}
	pools := m.Pools()
	if pools[0].State != PoolTerminated {
		t.Fatalf("state = %v", pools[0].State)
	}
	// Terminated pools do not revive via heartbeat.
	m.Heartbeat("victim")
	if m.Alive("victim") {
		t.Fatal("terminated pool revived")
	}
}

func TestTerminateUnknown(t *testing.T) {
	db := newDB(t)
	m := New(db, time.Second)
	defer m.Stop()
	if _, err := m.Terminate("ghost"); !errors.Is(err, ErrUnknownPool) {
		t.Fatalf("err = %v", err)
	}
}

func TestHeartbeatUnknownPoolIgnored(t *testing.T) {
	db := newDB(t)
	m := New(db, time.Second)
	defer m.Stop()
	m.Heartbeat("never-registered") // must not panic
	if len(m.Pools()) != 0 {
		t.Fatal("phantom pool appeared")
	}
}

func TestSuspectRecovers(t *testing.T) {
	db := newDB(t)
	m := New(db, 25*time.Millisecond)
	defer m.Stop()
	m.Register("flaky", nil)
	// Let it go suspect.
	waitFor(t, func() bool {
		return m.Pools()[0].State == PoolSuspect
	}, "pool never went suspect")
	// Heartbeat brings it back.
	m.Heartbeat("flaky")
	if !m.Alive("flaky") {
		t.Fatal("suspect pool did not recover on heartbeat")
	}
}

func TestStopIdempotent(t *testing.T) {
	db := newDB(t)
	m := New(db, time.Second)
	m.Stop()
	m.Stop() // second stop must not panic
}
