package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/future"
	"osprey/internal/pool"
)

// The load shape shared by the three *-cycle workloads. These are constants
// of the benchmark, not knobs: two runs compare only if they agree on them.
const (
	expID = "bench"

	// A run is cut into this many epochs. Each boots the topology afresh,
	// warms it up and measures for a fifth of the run, so every epoch walks
	// the same trajectory (the task table grows from empty in each) and the
	// reported value of a metric is the median of the epochs' values.
	epochs = 5

	meLoops     = 2  // ME loops on the one ME client
	batchSize   = 50 // tasks per SubmitBatch
	reprioEvery = 5  // every 5th round reprioritises and reads back its batch
	maxPriority = 100
	batchRing   = 64 // pre-generated batches per ME loop

	loadWorkType  = 1
	probeWorkType = 2

	// Fig. 3 middle panel (33 workers, batch 33, threshold 1) scaled to the
	// sandbox's two cores.
	poolWorkers   = 16
	poolBatch     = 16
	poolThreshold = 1

	probeEvery    = 20 * time.Millisecond
	probeInflight = 4 // probes that may be out at once before the schedule runs late
	probeTimeout  = 10 * time.Second
	probeRing     = 256
)

// window is the measured interval of one epoch.
type window struct {
	epoch  int
	start  time.Time
	length time.Duration
	inside atomic.Int64 // completions before the deadline
	total  atomic.Int64 // completions until the loops drained
}

// slot is where a sample taken at t is filed: under the window's epoch, or
// under the extra drain slot once the deadline has passed.
func (w *window) slot(t time.Time) int {
	if t.Sub(w.start) < w.length {
		return w.epoch
	}
	return epochs
}

// note counts one completed task.
func (w *window) note(t time.Time) {
	w.total.Add(1)
	if t.Sub(w.start) < w.length {
		w.inside.Add(1)
	}
}

// cycleInputs are the generated inputs of a cycle run: made once from the
// seed and replayed by every epoch.
type cycleInputs struct {
	batches [meLoops]*batches
	probes  *batches // batches of one
}

func newCycleInputs(seed int64) *cycleInputs {
	in := &cycleInputs{probes: newBatches(newGen(seed, meLoops), probeRing, 1, maxPriority)}
	for i := range in.batches {
		in.batches[i] = newBatches(newGen(seed, i), batchRing, batchSize, maxPriority)
	}
	return in
}

// cycleEnv is a booted topology with its pools running: everything set-up
// builds and the epoch's window then uses.
type cycleEnv struct {
	rec      *recorder
	in       *cycleInputs
	me, pool *timedSession

	nextRound [meLoops]int
	nextProbe atomic.Int64

	pools    []*pool.Pool
	stopPool context.CancelFunc
	poolWG   sync.WaitGroup

	submitted atomic.Int64 // tasks acknowledged by SubmitBatch or Submit
	completed atomic.Int64 // results popped and checked by the ME side

	win *window // nil outside the measured window

	probeMu    sync.Mutex
	turnaround *epochSamples   // due time -> result in hand, µs (shared by the run's epochs)
	lateness   []float64       // due time -> probe actually started, µs
	probeDone  map[int64]int64 // probe task id -> when Result returned (traced runs)
}

func taskFunc(payload string) (string, error) { return checksum(payload), nil }

// newCycleEnv attaches the harness to a booted topology and starts the load
// pool and the probe pool on the pool-side client.
func newCycleEnv(top *topology, rec *recorder, in *cycleInputs, turnaround *epochSamples) (*cycleEnv, error) {
	e := &cycleEnv{
		rec: rec, in: in, turnaround: turnaround,
		me:   &timedSession{Session: top.me, rec: rec},
		pool: &timedSession{Session: top.pool, rec: rec},
	}
	if rec.tracing {
		e.probeDone = make(map[int64]int64)
	}
	rec.closing.Store(false)
	ctx, cancel := context.WithCancel(context.Background())
	e.stopPool = cancel
	for _, cfg := range []pool.Config{
		{Name: "bench-pool", Workers: poolWorkers, BatchSize: poolBatch, Threshold: poolThreshold, WorkType: loadWorkType},
		{Name: "bench-probe", Workers: 1, WorkType: probeWorkType},
	} {
		sess := e.pool
		if cfg.WorkType == probeWorkType {
			sess = e.pool.probeSide()
		}
		p, err := pool.New(sess, cfg, taskFunc, nil)
		if err != nil {
			e.stop()
			return nil, err
		}
		e.pools = append(e.pools, p)
		e.poolWG.Add(1)
		go func() {
			defer e.poolWG.Done()
			p.Run(ctx) // returns ctx.Err() once every worker has exited
		}()
	}
	return e, nil
}

// stop ends the pools and waits for their goroutines. Errors from calls the
// cancellation cuts short are not failures of the program.
func (e *cycleEnv) stop() {
	e.rec.closing.Store(true)
	e.stopPool()
	e.poolWG.Wait()
}

// roundScratch is the per-loop state a round reuses.
type roundScratch struct {
	index   map[int64]int
	seen    []bool
	futures []*future.Future
}

func newRoundScratch() *roundScratch {
	return &roundScratch{
		index:   make(map[int64]int, batchSize),
		seen:    make([]bool, batchSize),
		futures: make([]*future.Future, batchSize),
	}
}

// round is one ME iteration: submit a batch, on every 5th round reprioritise
// it and read its statuses back, then collect all of its results through the
// futures API, checking each against the checksum of its payload.
func (e *cycleEnv) round(ctx context.Context, loop int, scratch *roundScratch) {
	k := e.nextRound[loop]
	e.nextRound[loop]++
	payloads, priorities, sums := e.in.batches[loop].at(k)
	spanID := e.rec.newSpanID()
	t0 := time.Now()
	sess := e.me.under(spanID)

	res, err := sess.SubmitBatch(ctx, expID, loadWorkType, payloads, priorities, nil)
	if err != nil {
		return // counted by the recorder
	}
	if len(res.IDs) != len(payloads) {
		e.rec.fail(fmt.Errorf("SubmitBatch returned %d ids for %d payloads", len(res.IDs), len(payloads)))
		return
	}
	e.submitted.Add(int64(len(res.IDs)))
	if k%reprioEvery == reprioEvery-1 {
		_, next, _ := e.in.batches[loop].at(k + 1)
		sess.UpdatePriorities(ctx, res.IDs, next)
		sess.Statuses(ctx, res.IDs)
	}

	clear(scratch.index)
	for i, id := range res.IDs {
		scratch.index[id] = i
		scratch.seen[i] = false
		scratch.futures[i] = future.Wrap(sess, id, loadWorkType)
	}
	got := 0
	for f := range future.AsCompleted(ctx, scratch.futures, 0) {
		now := time.Now()
		i, ok := scratch.index[f.TaskID()]
		result, _ := f.Result(0) // cached by AsCompleted
		switch {
		case !ok:
			e.rec.fail(fmt.Errorf("result for task %d, which this round did not submit", f.TaskID()))
		case scratch.seen[i]:
			e.rec.fail(fmt.Errorf("result of task %d popped twice", f.TaskID()))
		case result != sums[i]:
			e.rec.fail(fmt.Errorf("task %d: result %q is not the checksum %q of its payload", f.TaskID(), result, sums[i]))
		default:
			scratch.seen[i] = true
			got++
			e.completed.Add(1)
			if e.win != nil {
				e.win.note(now)
			}
		}
	}
	if got != len(payloads) {
		e.rec.fail(fmt.Errorf("round %d of loop %d collected %d of %d results", k, loop, got, len(payloads)))
	}
	e.rec.addSpan(spanID, res.IDs[0], "me.round", t0, time.Now())
}

// probe sends one task of the probe work type through future.Submit and
// waits for its result on the watch path. Its turnaround is timed from due,
// the moment the schedule said it should have been sent, so a stall that
// delays later probes is charged to them.
func (e *cycleEnv) probe(k int, due time.Time) {
	payloads, _, sums := e.in.probes.at(k)
	spanID := e.rec.newSpanID()
	t0 := time.Now()
	sess := e.me.probeSide().under(spanID)
	f, err := future.Submit(sess, expID, probeWorkType, payloads[0])
	if err != nil {
		return // counted by the recorder
	}
	e.submitted.Add(1)
	result, err := f.Result(probeTimeout)
	t1 := time.Now()
	if err != nil {
		e.rec.fail(fmt.Errorf("probe task %d: %w", f.TaskID(), err))
		return
	}
	if result != sums[0] {
		e.rec.fail(fmt.Errorf("probe task %d: result %q is not the checksum %q of its payload", f.TaskID(), result, sums[0]))
		return
	}
	e.completed.Add(1)
	if e.win == nil {
		return
	}
	e.win.note(t1)
	e.probeMu.Lock()
	e.turnaround.add(e.win.slot(t1), float64(t1.Sub(due))/1e3)
	e.lateness = append(e.lateness, float64(t0.Sub(due))/1e3)
	if e.probeDone != nil {
		e.probeDone[f.TaskID()] = e.rec.since(t1)
	}
	e.probeMu.Unlock()
	e.rec.addSpan(spanID, f.TaskID(), "probe", t0, t1)
}

// warmUp runs a fixed amount of the same traffic before the window opens, so
// that plan caches, connections, watch subscriptions and pool goroutines are
// in their steady state. It is part of set-up and is timed as such.
func (e *cycleEnv) warmUp(rounds, probes int) {
	ctx := context.Background()
	var wg sync.WaitGroup
	for loop := 0; loop < meLoops; loop++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newRoundScratch()
			for i := 0; i < rounds; i++ {
				e.round(ctx, loop, scratch)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < probes; i++ {
		e.probe(int(e.nextProbe.Add(1)-1), time.Now())
	}
}

// run opens the epoch's measured window for length: the ME loops start
// rounds until the deadline and finish the round they are in, and the probes
// go out on their schedule. It returns once every loop has drained, so every
// task submitted has been collected.
func (e *cycleEnv) run(epoch int, length time.Duration) {
	ctx := context.Background()
	e.lateness = make([]float64, 0, int(length/probeEvery)+1)
	scratch := [meLoops]*roundScratch{}
	for i := range scratch {
		scratch[i] = newRoundScratch()
	}

	e.win = e.rec.open(epoch, length)
	start := e.win.start
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for loop := 0; loop < meLoops; loop++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				e.round(ctx, loop, scratch[loop])
			}
		}()
	}
	var slot atomic.Int64
	base := e.nextProbe.Load()
	for i := 0; i < probeInflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := slot.Add(1) - 1
				due := start.Add(time.Duration(k) * probeEvery)
				if !due.Before(deadline) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				e.probe(int(base+k), due)
			}
		}()
	}
	wg.Wait()
	e.rec.close()
}

// checkCounts compares a Counts answer with what the ME side submitted and
// collected: every task complete, nothing queued, running or canceled.
func checkCounts(who string, counts map[core.Status]int, tasks int64) error {
	if int64(counts[core.StatusComplete]) != tasks || counts[core.StatusQueued] != 0 ||
		counts[core.StatusRunning] != 0 || counts[core.StatusCanceled] != 0 {
		return fmt.Errorf("%s: counts %v, want %d complete and nothing else", who, counts, tasks)
	}
	return nil
}
