//go:build !race

// The race detector's sync.Pool drops a share of puts at random, so the
// allocation pins build without it.

package service

import (
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/wait"
)

// TestCallAllocs pins what a call costs on both clients, server included
// (the server runs in this process): a report, a status read, and an empty
// 1 ms QueryTasks and PopResults, each at a plain Client's cost when the
// call loop was introduced. A closure or a context that escapes per call
// shows here as one more allocation, and a poll that re-polls the
// sub-millisecond rest of its deadline as a hundred more.
func TestCallAllocs(t *testing.T) {
	const runs = 100
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc, err := DialCluster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	never, err := idOf(c.Submit(bg, "alloc", 2, "never run"))
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []struct {
		name string
		s    core.Session
	}{{"Client", c}, {"ClusterClient", cc}} {
		// AllocsPerRun runs its function once more than asked, to warm up.
		payloads := make([]string, runs+1)
		for i := range payloads {
			payloads[i] = "p"
		}
		if _, err := s.s.SubmitBatch(bg, "alloc", 1, payloads, nil, nil); err != nil {
			t.Fatal(err)
		}
		tasks, err := tasksOf(s.s.QueryTasks(within(t, waitMax), 1, runs+1, "pool"))
		if err != nil || len(tasks) != runs+1 {
			t.Fatalf("%s: popped %d tasks, %v; want %d", s.name, len(tasks), err, runs+1)
		}
		ids := []int64{never}
		i := 0
		for _, c := range []struct {
			op   string
			max  float64
			call func()
		}{
			{"Report", 2, func() {
				if _, err := s.s.Report(bg, tasks[i].ID, 1, "r"); err != nil {
					t.Fatal(err)
				}
				i++
			}},
			{"Statuses", 12, func() {
				if _, err := s.s.Statuses(bg, ids); err != nil {
					t.Fatal(err)
				}
			}},
			{"QueryTasks 1ms", 3, func() {
				ctx, release := wait.Deadline(time.Millisecond)
				s.s.QueryTasks(ctx, 1, 1, "pool")
				release()
			}},
			{"PopResults 1ms", 5, func() {
				ctx, release := wait.Deadline(time.Millisecond)
				s.s.PopResults(ctx, ids, 1)
				release()
			}},
		} {
			if n := testing.AllocsPerRun(runs, c.call); n > c.max {
				t.Errorf("%s %s: %v allocs, want at most %v", s.name, c.op, n, c.max)
			} else {
				t.Logf("%s %s: %v allocs", s.name, c.op, n)
			}
		}
	}
}
