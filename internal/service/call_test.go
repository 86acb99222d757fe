package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"osprey/internal/core"
)

// TestClusterCallsEndOnCancel: with every node down, a write, a read and a
// poll through a ClusterClient return context.Canceled as soon as their
// context is canceled, not after FailTimeout of redials.
func TestClusterCallsEndOnCancel(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := DialCluster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	srv.Close()

	calls := map[string]func(ctx context.Context) error{
		"Submit": func(ctx context.Context) error {
			_, err := cc.Submit(ctx, "down", 1, "p")
			return err
		},
		"Statuses": func(ctx context.Context) error {
			_, err := cc.Statuses(ctx, []int64{1})
			return err
		},
		"QueryTasks": func(ctx context.Context) error {
			_, err := cc.QueryTasks(ctx, 1, 1, "pool")
			return err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			time.AfterFunc(50*time.Millisecond, cancel)
			start := time.Now()
			err := call(ctx)
			if took := time.Since(start); !errors.Is(err, context.Canceled) || took > time.Second {
				t.Fatalf("%s with every node down, canceled at 50ms: %v after %v; want context.Canceled within 1s",
					name, err, took)
			}
		})
	}
}

// TestEmptyPollRequests: an empty bounded poll waits server-side for its
// whole deadline, so it costs one request per chunk plus at most one, on
// both clients: no re-poll of a sub-millisecond remainder.
func TestEmptyPollRequests(t *testing.T) {
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
	id, err := idOf(c.Submit(bg, "empty", 2, "never run"))
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []struct {
		name string
		s    core.Session
	}{{"Client", c}, {"ClusterClient", cc}} {
		for _, d := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond} {
			for op, poll := range map[string]func(ctx context.Context) error{
				"QueryTasks": func(ctx context.Context) error {
					_, err := s.s.QueryTasks(ctx, 1, 1, "pool")
					return err
				},
				"PopResults": func(ctx context.Context) error {
					_, err := s.s.PopResults(ctx, []int64{id}, 1)
					return err
				},
			} {
				before := requestCount(srv)
				ctx, cancel := context.WithTimeout(bg, d)
				err := poll(ctx)
				cancel()
				if !errors.Is(err, core.ErrTimeout) {
					t.Fatalf("%s %s(%v) on an empty queue = %v, want ErrTimeout", s.name, op, d, err)
				}
				want := float64((d+pollChunk-1)/pollChunk + 1)
				if n := requestCount(srv) - before; n > want {
					t.Errorf("%s %s(%v): %v server requests, want at most %v", s.name, op, d, n, want)
				}
			}
		}
	}
}
