package chaos

import (
	"context"
	"sync"
	"time"

	"osprey/internal/minisql"
	"osprey/internal/service"
	"osprey/internal/watch"
)

// The watcher invariant (invariant 6): a single failover watch subscription
// (watch.Query{All:true}) opened before the schedule must, by the end of the
// run, have delivered every acked submit's terminal transition exactly once —
// across every partition, crash, rollback, and resubscribe seam the schedule
// threw at it. The exactly-once bound is unconditional because watch
// publication is gated on the quorum commit watermark (core's watchGate): a
// subscriber never sees an applied-but-unacked transition, and
// quorum-committed history survives every election, so no delivered
// transition can roll back and be recommitted under a new token.
// Completeness is enforced strictly unless a resync seam occurred (a hub
// reset compacts the replayable history, and a seam is one bare marker with
// no per-task history — transitions terminal before the seam are then
// legitimately unobservable). Transitions driven after the heal
// always land after any seam, so they are never excused.

// delivery records one terminal delivery: its commit token and the resync
// epoch (count of seams seen before it) it arrived in — diagnostics for a
// duplicate, which always indicates a product bug.
type delivery struct {
	tok   uint64
	epoch int
	st    string
}

// Watcher consumes one cluster-wide watch stream for the whole schedule.
type Watcher struct {
	c      *Cluster
	cc     *service.ClusterClient
	st     watch.Stream
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	term      map[int64][]delivery // non-resync terminal deliveries per task id
	queued    map[int64]uint64     // token of each task's delivered queued transition
	resyncTok uint64               // highest resync token observed (0 = no seam)
	lastSeam  uint64               // token of the latest resync seam
	epoch     int                  // resync seams observed so far
	events    int                  // total events delivered, for the run log
}

// StartWatcher opens the schedule-long subscription through a dedicated
// failover client. Call before StartWorkload so no transition predates it.
func (c *Cluster) StartWatcher() *Watcher {
	c.t.Helper()
	cc, err := service.DialCluster(c.SvcAddrs()...)
	if err != nil {
		c.fail("watcher: dial cluster: %v", err)
		return nil
	}
	cc.FailTimeout = 2 * time.Second
	cc.DialTimeout = 500 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	st, err := cc.Watch(ctx, watch.Query{All: true}, 1024)
	if err != nil {
		cancel()
		cc.Close()
		c.fail("watcher: subscribe: %v", err)
		return nil
	}
	w := &Watcher{
		c: c, cc: cc, st: st, cancel: cancel,
		term: make(map[int64][]delivery), queued: make(map[int64]uint64),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

func (w *Watcher) run() {
	defer w.wg.Done()
	for batch := range w.st.Events() {
		w.mu.Lock()
		seam := false
		for _, ev := range batch {
			w.events++
			if ev.Resync {
				seam = true
				if ev.Token > w.resyncTok {
					w.resyncTok = ev.Token
				}
				w.lastSeam = ev.Token
				continue
			}
			switch ev.Status {
			case watch.StatusComplete, watch.StatusCanceled:
				w.term[ev.TaskID] = append(w.term[ev.TaskID], delivery{ev.Token, w.epoch, ev.Status})
			case watch.StatusQueued:
				w.queued[ev.TaskID] = ev.Token
			}
		}
		if seam {
			w.epoch++ // one epoch per seam, however many resync events it carried
		}
		w.mu.Unlock()
	}
}

// snapshot returns the per-task terminal deliveries and the resync watermark.
func (w *Watcher) snapshot() (map[int64][]delivery, uint64, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	term := make(map[int64][]delivery, len(w.term))
	for id, ds := range w.term {
		term[id] = append([]delivery(nil), ds...)
	}
	return term, w.resyncTok, w.events
}

// DrainAndVerify runs after HealAndVerify (lead is its return): it drives
// every task still live to a terminal state — requeue the workload pool's
// running tasks, then cancel everything queued — waits for the stream to
// deliver the resulting transitions, and checks the watcher invariant
// against the acked ledger. It ends the subscription.
func (w *Watcher) DrainAndVerify(lead int) {
	c := w.c
	c.t.Helper()
	if lead < 0 {
		w.stopStream()
		return // convergence already failed; nothing sound to verify against
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelCtx()

	// Drive the leftovers terminal through the healed cluster. Running tasks
	// (a workload pop whose report was cut off) are ineligible for cancel, so
	// requeue them first; the requeue's queued transition and the cancel's
	// canceled transition both flow to the watcher.
	cc, err := service.DialCluster(c.SvcAddrs()...)
	if err != nil {
		c.fail("watcher drain: dial cluster: %v", err)
		w.stopStream()
		return
	}
	defer cc.Close()

	// Gate the drain on stream liveness: the cluster has converged, so no
	// further snapshot installs can reset a hub — but the watcher's latest
	// resubscribe may still be in flight (or about to ride one last seam).
	// A sentinel submit proves the stream is live past its commit token: the
	// watcher either delivers the sentinel's queued transition, or a resync
	// seam at-or-past the sentinel's token (the resubscribe landed after the
	// sentinel committed, so its transition is legitimately behind the seam —
	// but the stream position is past it all the same). Either way, every
	// transition the drain commits below lands after the stream position and
	// is unconditionally required to arrive. Both are matched by token, the
	// latest seam's included: a domain rolled back by a snapshot install may
	// have published the sentinel's task id, or a higher seam, before the heal.
	sentinel, err := cc.Submit(ctx, "chaos", 0, "watch-drain-sentinel")
	if err != nil {
		c.fail("watcher drain: sentinel submit: %v", err)
		w.stopStream()
		return
	}
	if !c.waitFor("watcher live past post-heal sentinel", 20*time.Second, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.queued[sentinel.ID] == uint64(sentinel.Token) || w.lastSeam >= uint64(sentinel.Token)
	}) {
		w.stopStream()
		return
	}

	if _, err := cc.RequeueRunning(ctx, "pool"); err != nil {
		c.fail("watcher drain: requeue running: %v", err)
	}
	eng := c.Nodes[lead].Replica().DB().Engine()
	var queued []int64
	if err := selectRows(eng, "SELECT task_id FROM eq_out_q", func(row []minisql.Value) {
		queued = append(queued, row[0].AsInt())
	}); err != nil {
		c.fail("watcher drain: reading queue: %v", err)
		w.stopStream()
		return
	}
	drained := make(map[int64]bool, len(queued))
	if len(queued) > 0 {
		n, err := cc.CancelTasks(ctx, queued)
		if err != nil {
			c.fail("watcher drain: cancel %d queued tasks: %v", len(queued), err)
		} else if n.Count != len(queued) {
			c.fail("watcher drain: canceled %d of %d queued tasks", n.Count, len(queued))
		}
		for _, id := range queued {
			drained[id] = true
		}
	}

	// Map the acked ledger (payload -> token) to task ids via the leader's
	// final state. A payload missing here was already failed by invariant 1.
	idOf := make(map[string]int64)
	if err := selectRows(eng, "SELECT task_id, payload FROM eq_tasks", func(row []minisql.Value) {
		idOf[row[1].AsText()] = row[0].AsInt()
	}); err != nil {
		c.fail("watcher drain: reading final state: %v", err)
		w.stopStream()
		return
	}
	c.mu.Lock()
	ackedIDs := make(map[int64]string, len(c.acked))
	for payload := range c.acked {
		if id, ok := idOf[payload]; ok {
			ackedIDs[id] = payload
		}
	}
	c.mu.Unlock()

	// Wait for the stream to catch up: every acked task must show terminal
	// evidence, except mid-schedule terminals hidden behind a resync seam.
	c.waitFor("watcher delivered all terminal transitions", 10*time.Second, func() bool {
		term, resyncTok, _ := w.snapshot()
		for id := range ackedIDs {
			if len(term[id]) == 0 && (resyncTok == 0 || drained[id]) {
				return false
			}
		}
		return true
	})
	w.stopStream()
	if err := w.st.Err(); err != nil {
		c.fail("watcher stream died instead of failing over: %v", err)
	}

	term, resyncTok, events := w.snapshot()
	excused := 0
	for id, payload := range ackedIDs {
		switch ds := term[id]; {
		case len(ds) > 1:
			c.fail("watcher invariant: terminal transition for task %d (payload %s) delivered %d times (token/epoch %v, resync seam at %d)",
				id, payload, len(ds), ds, resyncTok)
		case len(ds) == 0 && (resyncTok == 0 || drained[id]):
			c.fail("watcher invariant: terminal transition for task %d (payload %s) never delivered (resync seam at %d)",
				id, payload, resyncTok)
		case len(ds) == 0:
			excused++ // terminal before the resync seam: unobservable by contract
		}
	}
	c.t.Logf("watcher: %d events, %d acked tasks verified terminal exactly once (%d excused by resync seam, %d drained post-heal)",
		events, len(ackedIDs)-excused, excused, len(drained))
}

func (w *Watcher) stopStream() {
	w.st.Close()
	w.cancel()
	w.wg.Wait()
	w.cc.Close()
}
