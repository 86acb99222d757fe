package main

import (
	"context"
	"fmt"
	"time"

	"osprey/internal/core"
)

// Sizes of the deep-queue workload; constants for the same reason the cycle
// shape is. The depth is what this sandbox can preload in a couple of
// seconds at the seed state (see README: UpdatePriorities at depth).
const (
	deepDepth       = 20000 // queued tasks held throughout
	deepMaxPriority = 1000
	deepPreload     = 1000 // tasks per preload SubmitBatch
	deepReprio      = 500  // ids per UpdatePriorities (a GPR reprioritisation)
	deepPop         = 33   // tasks popped, reported, collected and replaced per round
	deepRead        = 100  // ids per Statuses / Priorities read
	deepProbes      = 3    // probe tasks per round, for a steadier probe median
	deepPoolName    = "deep"
)

// deepInputs are the generated inputs of a deep-queue run: made once from the
// seed and replayed by every epoch.
type deepInputs struct {
	seed    int64
	preload *batches // the tasks that fill the queue, in SubmitBatch-sized pieces
	rounds  *batches // replacement batches of deepPop
}

func newDeepInputs(seed int64, depth int) *deepInputs {
	per := min(deepPreload, depth)
	return &deepInputs{
		seed:    seed,
		preload: newBatches(newGen(seed, 0), depth/per, per, deepMaxPriority),
		rounds:  newBatches(newGen(seed, 1), batchRing, deepPop, deepMaxPriority),
	}
}

// deepEnv drives one in-process core.DB from a single goroutine, so its
// counts repeat exactly for a given number of rounds.
type deepEnv struct {
	rec  *recorder
	sess *timedSession
	in   *deepInputs
	g    *gen // picks the ids to reprioritise and read
	ctx  context.Context

	queued []int64          // ids in the out-queue, in no order
	pos    map[int64]int    // id -> index in queued
	sums   map[int64]string // id -> checksum its result must equal
	round  int

	completed int64
	win       *window
	turnround *epochSamples // probe: Submit -> QueryResult in hand, µs (shared by the run's epochs)

	// per-round scratch
	picks   []int
	picked  map[int]bool
	ids     []int64
	prios   []int
	readIDs []int64
}

func newDeepEnv(ctx context.Context, top *topology, rec *recorder, in *deepInputs, turnround *epochSamples) *deepEnv {
	depth := len(in.preload.payloads) * len(in.preload.payloads[0])
	return &deepEnv{
		rec: rec, in: in, ctx: ctx, turnround: turnround,
		g:       newGen(in.seed, 2),
		sess:    &timedSession{Session: top.me, rec: rec},
		queued:  make([]int64, 0, depth+deepPop),
		pos:     make(map[int64]int, depth+deepPop),
		sums:    make(map[int64]string, depth+deepPop),
		picks:   make([]int, deepReprio),
		picked:  make(map[int]bool, deepReprio),
		ids:     make([]int64, 0, deepReprio),
		prios:   make([]int, deepReprio),
		readIDs: make([]int64, 0, deepRead),
	}
}

func (e *deepEnv) enqueue(id int64, sum string) {
	e.pos[id] = len(e.queued)
	e.queued = append(e.queued, id)
	e.sums[id] = sum
}

func (e *deepEnv) dequeue(id int64) {
	i, ok := e.pos[id]
	if !ok {
		return
	}
	last := len(e.queued) - 1
	e.queued[i] = e.queued[last]
	e.pos[e.queued[i]] = i
	e.queued = e.queued[:last]
	delete(e.pos, id)
}

// preload fills the out-queue to the working depth.
func (e *deepEnv) preload() error {
	for k := range e.in.preload.payloads {
		payloads, prios, sums := e.in.preload.at(k)
		res, err := e.sess.SubmitBatch(e.ctx, expID, loadWorkType, payloads, prios, nil)
		if err != nil {
			return err
		}
		if len(res.IDs) != len(payloads) {
			return fmt.Errorf("preload SubmitBatch returned %d ids for %d payloads", len(res.IDs), len(payloads))
		}
		for i, id := range res.IDs {
			e.enqueue(id, sums[i])
		}
	}
	return nil
}

// pickQueued fills e.ids with n distinct ids drawn from the queued set.
func (e *deepEnv) pickQueued(n int) []int64 {
	clear(e.picked)
	picks := e.picks[:n]
	e.g.pick(len(e.queued), picks, e.picked)
	e.ids = e.ids[:0]
	for _, i := range picks {
		e.ids = append(e.ids, e.queued[i])
	}
	return e.ids
}

// step is one round of the workload, every call a write or a read on a
// queue deepDepth tasks deep.
func (e *deepEnv) step() {
	s, ctx := e.sess, e.ctx
	k := e.round
	e.round++

	// GPR reprioritisation of a random slice of the queue.
	ids := e.pickQueued(min(deepReprio, len(e.queued)))
	prios := e.prios[:len(ids)]
	for i := range prios {
		prios[i] = e.g.priority(deepMaxPriority)
	}
	if res, err := s.UpdatePriorities(ctx, ids, prios); err == nil && res.Count != len(ids) {
		e.rec.fail(fmt.Errorf("UpdatePriorities changed %d of %d queued tasks", res.Count, len(ids)))
	}

	// A pool's worth of work: pop the top of the queue, report, collect.
	popped, err := s.QueryTasks(ctx, loadWorkType, deepPop, deepPoolName)
	if err != nil {
		return
	}
	ids = e.ids[:0]
	for _, t := range popped.Tasks {
		e.dequeue(t.ID)
		ids = append(ids, t.ID)
		result, _ := taskFunc(t.Payload)
		s.Report(ctx, t.ID, loadWorkType, result)
	}
	if results, err := s.PopResults(ctx, ids, len(ids)); err == nil {
		if len(results.Results) != len(ids) {
			e.rec.fail(fmt.Errorf("PopResults returned %d of %d reported results", len(results.Results), len(ids)))
		}
		now := time.Now()
		for _, r := range results.Results {
			e.collect(r.ID, r.Result, now)
		}
	}

	// Hold the depth.
	payloads, newPrios, sums := e.in.rounds.at(k)
	if res, err := s.SubmitBatch(ctx, expID, loadWorkType, payloads, newPrios, nil); err == nil {
		for i, id := range res.IDs {
			e.enqueue(id, sums[i])
		}
	}

	// The reads an ME algorithm makes between batches.
	e.readIDs = append(e.readIDs[:0], e.pickQueued(min(deepRead, len(e.queued)))...)
	if sts, err := s.Statuses(ctx, e.readIDs); err == nil {
		for _, id := range e.readIDs {
			if sts[id] != core.StatusQueued {
				e.rec.fail(fmt.Errorf("Statuses: queued task %d reads %q", id, sts[id]))
			}
		}
	}
	if ps, err := s.Priorities(ctx, e.readIDs); err == nil && len(ps) != len(e.readIDs) {
		e.rec.fail(fmt.Errorf("Priorities answered for %d of %d queued tasks", len(ps), len(e.readIDs)))
	}
	s.Counts(ctx, "")

	for i := 0; i < deepProbes; i++ {
		e.probe(k*deepProbes + i)
	}
}

// collect checks one popped result against the checksum recorded at submit;
// forgetting the id makes a second pop of it a failure.
func (e *deepEnv) collect(id int64, result string, now time.Time) {
	want, ok := e.sums[id]
	switch {
	case !ok:
		e.rec.fail(fmt.Errorf("result for task %d, which is unknown or was already collected", id))
	case result != want:
		e.rec.fail(fmt.Errorf("task %d: result %q is not the checksum %q of its payload", id, result, want))
	default:
		delete(e.sums, id)
		e.completed++
		if e.win != nil {
			e.win.note(now)
		}
	}
}

// probe takes one task of the probe work type through its whole life beside
// the deep queue: the single-task turnaround the cycle workloads measure
// under load, here measured under depth.
func (e *deepEnv) probe(k int) {
	s, ctx := e.sess.probeSide(), e.ctx
	payloads, _, sums := e.in.rounds.at(k)
	t0 := time.Now()
	sub, err := s.Submit(ctx, expID, probeWorkType, payloads[0])
	if err != nil {
		return
	}
	e.sums[sub.ID] = sums[0]
	popped, err := s.QueryTasks(ctx, probeWorkType, 1, deepPoolName)
	if err != nil {
		return
	}
	if len(popped.Tasks) != 1 || popped.Tasks[0].ID != sub.ID {
		e.rec.fail(fmt.Errorf("probe: popped %v, want task %d", popped.Tasks, sub.ID))
		return
	}
	result, _ := taskFunc(popped.Tasks[0].Payload)
	if _, err := s.Report(ctx, sub.ID, probeWorkType, result); err != nil {
		return
	}
	got, err := s.QueryResult(ctx, sub.ID)
	if err != nil {
		return
	}
	t1 := time.Now()
	e.collect(sub.ID, got.Result, t1)
	if e.win != nil {
		e.turnround.add(e.win.slot(t1), float64(t1.Sub(t0))/1e3)
	}
}

// run steps until the epoch's window closes and returns how long that took:
// the window ends with the round that crosses the deadline, so the epoch's
// rate is its tasks over exactly this time.
func (e *deepEnv) run(epoch int, length time.Duration) time.Duration {
	e.win = e.rec.open(epoch, length)
	deadline := e.win.start.Add(length)
	end := e.win.start
	for end.Before(deadline) {
		e.step()
		end = time.Now()
	}
	e.rec.close()
	return end.Sub(e.win.start)
}
