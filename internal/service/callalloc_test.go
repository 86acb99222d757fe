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
// (the server runs in this process): a report, a status read, a QueryTasks
// and a PopResults that each pop one row, and an empty 1 ms QueryTasks and
// PopResults. A closure or a context that escapes per call shows here as one
// more allocation, a copy of a decoded or a core answer as one or two more,
// and a poll that re-polls the sub-millisecond rest of its deadline as a
// hundred more.
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
		for _, workType := range []int{1, 3} {
			if _, err := s.s.SubmitBatch(bg, "alloc", workType, payloads, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		tasks, err := tasksOf(s.s.QueryTasks(within(t, waitMax), 1, runs+1, "pool"))
		if err != nil || len(tasks) != runs+1 {
			t.Fatalf("%s: popped %d tasks, %v; want %d", s.name, len(tasks), err, runs+1)
		}
		ids := []int64{never}
		reported := make([]int64, len(tasks))
		for i, task := range tasks {
			reported[i] = task.ID
		}
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
			{"PopResults one", 5, func() {
				if res, err := s.s.PopResults(bg, reported, 1); err != nil || len(res.Results) != 1 {
					t.Fatalf("PopResults popped %d results, %v; want 1", len(res.Results), err)
				}
			}},
			{"QueryTasks one", 5, func() {
				if res, err := s.s.QueryTasks(bg, 3, 1, "pool"); err != nil || len(res.Tasks) != 1 {
					t.Fatalf("QueryTasks popped %d tasks, %v; want 1", len(res.Tasks), err)
				}
			}},
			{"Statuses", 8, func() {
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
