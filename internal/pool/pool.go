// Package pool implements OSPREY's heterogeneous worker pools (paper §IV-D).
//
// A pool is the stand-in for the paper's Swift/T pilot-job application: a
// fixed set of workers that query the EMEWS DB output queue for tasks of the
// pool's work type, execute them concurrently, and report results to the
// input queue. The pool's querying is governed by two knobs studied in
// Figure 3:
//
//   - BatchSize: the maximum number of tasks the pool may own (obtained but
//     not yet completed). A batch size above the worker count oversubscribes
//     the pool, creating an in-memory task cache that keeps workers hot at
//     the cost of making cached tasks ineligible for reprioritization or
//     cancellation.
//   - Threshold: how large the deficit between BatchSize and owned tasks
//     must be before the pool asks the database for more. Large thresholds
//     produce the saw-tooth idling of Figure 3 (bottom).
//
// Pools are typed: a pool only queries for its configured work type, so
// pools can be matched to resources (CPU simulation pools, GPU ML pools).
package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/telemetry"
	"osprey/internal/watch"
)

// TaskFunc executes one task payload and returns its result payload.
type TaskFunc func(payload string) (string, error)

// Config parameterizes a worker pool.
type Config struct {
	// Name identifies the pool in the EMEWS DB and in telemetry.
	Name string
	// Workers is the number of concurrent task executors (33 in the paper's
	// experiments: one 36-core Bebop node).
	Workers int
	// BatchSize is the maximum number of owned tasks (paper: 33 or 50).
	BatchSize int
	// Threshold is the minimum deficit before re-querying (paper: 1 or 15).
	Threshold int
	// WorkType selects which tasks this pool consumes.
	WorkType int
	// CoresOf, when set, extracts a task's core requirement from its
	// payload, supporting the paper's multi-process MPI tasks (§II-B1a,
	// Swift/T's @par): a k-core task occupies k of the pool's Workers
	// slots for its whole execution. Requirements are clamped to
	// [1, Workers]; nil treats every task as single-core.
	CoresOf func(payload string) int
	// Metrics, when set, receives the pool's gauges and counters, labeled by
	// pool name: osprey_pool_workers_{busy,idle}, osprey_pool_tasks_owned and
	// osprey_pool_tasks_{executed,failed}_total. Nil disables instrumentation.
	Metrics *obs.Registry
}

// JSONCores extracts an integer "cores" field from a JSON payload,
// defaulting to 1 — a ready-made Config.CoresOf for JSON task schemas.
func JSONCores(payload string) int {
	var p struct {
		Cores int `json:"cores"`
	}
	if err := json.Unmarshal([]byte(payload), &p); err != nil || p.Cores < 1 {
		return 1
	}
	return p.Cores
}

func (c *Config) applyDefaults() error {
	if c.Name == "" {
		return fmt.Errorf("pool: Name is required")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = c.Workers
	}
	if c.Threshold <= 0 {
		c.Threshold = 1
	}
	if c.Threshold > c.BatchSize {
		return fmt.Errorf("pool: Threshold %d exceeds BatchSize %d", c.Threshold, c.BatchSize)
	}
	return nil
}

// Pool executes tasks of one work type against an EMEWS DB.
type Pool struct {
	cfg  Config
	api  core.Session
	exec TaskFunc
	rec  *telemetry.Recorder

	owned    atomic.Int64
	executed atomic.Int64
	failed   atomic.Int64
	busy     atomic.Int64 // cores currently held by executing tasks
	running  atomic.Bool
}

// New creates a pool over any Session implementation — the in-process DB, a
// service client, or a failover-aware cluster client. rec may be nil when
// telemetry is not needed.
func New(api core.Session, cfg Config, exec TaskFunc, rec *telemetry.Recorder) (*Pool, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if api == nil || exec == nil {
		return nil, fmt.Errorf("pool: api and exec are required")
	}
	p := &Pool{cfg: cfg, api: api, exec: exec, rec: rec}
	if reg := cfg.Metrics; reg != nil {
		name := cfg.Name
		reg.CollectFunc(func(e *obs.Emitter) {
			busy := p.busy.Load()
			e.Gauge("osprey_pool_workers_busy", float64(busy), "pool", name)
			e.Gauge("osprey_pool_workers_idle", float64(int64(p.cfg.Workers)-busy), "pool", name)
			e.Gauge("osprey_pool_tasks_owned", float64(p.owned.Load()), "pool", name)
			e.Counter("osprey_pool_tasks_executed_total", float64(p.executed.Load()), "pool", name)
			e.Counter("osprey_pool_tasks_failed_total", float64(p.failed.Load()), "pool", name)
		})
	}
	return p, nil
}

// Name returns the pool's identifier.
func (p *Pool) Name() string { return p.cfg.Name }

// Owned returns the number of tasks currently obtained but not completed.
func (p *Pool) Owned() int { return int(p.owned.Load()) }

// Executed returns the number of tasks completed so far.
func (p *Pool) Executed() int { return int(p.executed.Load()) }

// Failed returns the number of task executions that returned an error.
func (p *Pool) Failed() int { return int(p.failed.Load()) }

// Running reports whether the pool's Run loop is active.
func (p *Pool) Running() bool { return p.running.Load() }

// Run starts the pool and blocks until ctx is canceled. On return all
// workers have exited; tasks that were fetched but never started remain
// marked running in the database and can be recovered with
// Session.RequeueRunning (the paper's fault-tolerance path, §II-B1c).
func (p *Pool) Run(ctx context.Context) error {
	p.running.Store(true)
	defer p.running.Store(false)
	if p.rec != nil {
		p.rec.Record(telemetry.PoolStart, p.cfg.Name, 0)
		defer p.rec.Record(telemetry.PoolStop, p.cfg.Name, 0)
	}

	taskCh := make(chan core.Task)
	// completions has capacity for every worker so completion signals never
	// block; the fetcher drains it opportunistically.
	completions := make(chan struct{}, p.cfg.Workers)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.dispatch(ctx, taskCh, completions, &wg)
	}()

	p.fetch(ctx, taskCh, completions)
	wg.Wait()
	return ctx.Err()
}

// dispatch assigns tasks to worker-core slots. Cores are a weighted
// semaphore of Workers units; a k-core task (Config.CoresOf) holds k units,
// modeling Swift/T running MPI executables across several workers. The
// dispatcher is the only acquirer, so large tasks cannot deadlock: they
// simply wait until enough cores free up.
func (p *Pool) dispatch(ctx context.Context, taskCh <-chan core.Task, completions chan<- struct{}, wg *sync.WaitGroup) {
	cores := make(chan struct{}, p.cfg.Workers)
	for {
		var task core.Task
		select {
		case task = <-taskCh:
		case <-ctx.Done():
			return
		}
		need := 1
		if p.cfg.CoresOf != nil {
			need = p.cfg.CoresOf(task.Payload)
			if need < 1 {
				need = 1
			}
			if need > p.cfg.Workers {
				need = p.cfg.Workers
			}
		}
		acquired := 0
		for acquired < need {
			select {
			case cores <- struct{}{}:
				acquired++
			case <-ctx.Done():
				for ; acquired > 0; acquired-- {
					<-cores
				}
				return
			}
		}
		wg.Add(1)
		go func(task core.Task, need int) {
			defer wg.Done()
			p.busy.Add(int64(need))
			p.execute(task)
			p.busy.Add(int64(-need))
			for i := 0; i < need; i++ {
				<-cores
			}
			select {
			case completions <- struct{}{}:
			default:
			}
		}(task, need)
	}
}

// Fetch-error backoff bounds: non-timeout query errors (a restarting or
// failing-over backend) retry with full jitter — a uniform draw from
// (0, backoff], doubling to the cap — instead of a hot retry loop.
const (
	fetchBackoffBase = 5 * time.Millisecond
	fetchBackoffCap  = 250 * time.Millisecond
)

// sleepJitter sleeps a uniform random fraction of backoff, honoring ctx;
// false once ctx is done.
func sleepJitter(ctx context.Context, backoff time.Duration) bool {
	t := time.NewTimer(time.Duration(rand.Int63n(int64(backoff))) + 1)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// queryTimeout is the deadline of one deficit query. The pool only queries
// while it believes the queue holds work, so this bounds a query that raced
// another pool to the last tasks, not an idle wait.
const queryTimeout = 50 * time.Millisecond

// query issues one deficit query and hands the obtained tasks to dispatch.
// It returns the number of tasks obtained; ok is false only for non-timeout
// errors (a timeout is the backend's normal "queue empty" answer).
func (p *Pool) query(ctx context.Context, deficit int, taskCh chan<- core.Task) (n int, ok bool) {
	qctx, cancel := context.WithTimeout(ctx, queryTimeout)
	res, err := p.api.QueryTasks(qctx, p.cfg.WorkType, deficit, p.cfg.Name)
	cancel()
	if err != nil {
		return 0, errors.Is(err, core.ErrTimeout)
	}
	p.owned.Add(int64(len(res.Tasks)))
	for _, task := range res.Tasks {
		select {
		case taskCh <- task:
		case <-ctx.Done():
			// Undelivered tasks stay running in the DB for requeue.
			return len(res.Tasks), true
		}
	}
	return len(res.Tasks), true
}

// fetch keeps the pool supplied with tasks — the enhanced worker-pool query
// of §IV-D (request up to BatchSize - owned tasks whenever that deficit
// reaches Threshold), driven by push instead of a timer: a subscription to
// the pool's work type says when the out queue has work, and the pool queries
// only while it believes tasks are available. An idle pool — no queued work,
// no deficit — parks in the select below issuing no reads at all, where the
// paper's poll loop burns a query per delay per pool regardless of load.
func (p *Pool) fetch(ctx context.Context, taskCh chan<- core.Task, completions <-chan struct{}) {
	backoff := fetchBackoffBase
	// pause sleeps one full-jitter backoff step and doubles the window;
	// false once ctx is done.
	pause := func() bool {
		if !sleepJitter(ctx, backoff) {
			return false
		}
		if backoff *= 2; backoff > fetchBackoffCap {
			backoff = fetchBackoffCap
		}
		return true
	}
	// subscribe opens the pool's stream after the resume position, retrying a
	// failed attempt (a dial error, a draining or not-yet-attached node) at
	// the backoff pace for as long as ctx lives; nil once ctx is done.
	subscribe := func(since uint64) watch.Stream {
		for {
			st, err := p.api.Watch(ctx, watch.Query{WorkType: p.cfg.WorkType, Since: since}, 0)
			if err == nil {
				return st
			}
			if !pause() {
				return nil
			}
		}
	}
	st := subscribe(0)
	if st == nil {
		return
	}
	// st is nil only on the way out, when ctx ended during a resubscribe.
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	var last uint64 // newest token seen; resume position for resubscribes
	avail := true   // until proven empty, the queue may hold tasks
	for ctx.Err() == nil {
		deficit := p.cfg.BatchSize - int(p.owned.Load())
		if deficit >= p.cfg.Threshold && avail {
			n, ok := p.query(ctx, deficit, taskCh)
			switch {
			case !ok:
				// Transport or backend failure (not an empty queue): back off
				// with full jitter so a restarting or failing-over backend is
				// not hammered by a hot retry loop.
				if !pause() {
					return
				}
			case n < deficit:
				// The queue had less than asked for: it is now empty of this
				// work type, so stop querying until a queued event arrives.
				avail = false
				backoff = fetchBackoffBase
			default:
				backoff = fetchBackoffBase
			}
			continue
		}
		select {
		case <-completions:
			// Owned dropped; reconsider the deficit.
		case batch, ok := <-st.Events():
			if !ok {
				// Stream ended (overflow, hub reset, connection loss on a
				// non-failover client): resubscribe from the last seen token.
				// Events may have been missed in between, so assume work.
				avail = true
				st.Close()
				st = nil
				if !pause() {
					return
				}
				if st = subscribe(last); st == nil {
					return
				}
				continue
			}
			for _, ev := range batch {
				if ev.Token > last {
					last = ev.Token
				}
				if ev.Status == watch.StatusQueued || ev.Resync {
					// A resync seam means transitions were compacted away:
					// queue state is unknown, so assume work until a query
					// says otherwise.
					avail = true
				}
			}
		case <-ctx.Done():
			return
		}
	}
}

// execute runs one task to completion and reports its result.
func (p *Pool) execute(task core.Task) {
	if p.rec != nil {
		p.rec.Record(telemetry.TaskStart, p.cfg.Name, task.ID)
	}
	result, err := p.exec(task.Payload)
	if err != nil {
		p.failed.Add(1)
		result = fmt.Sprintf(`{"error": %q}`, err.Error())
	}
	if _, rerr := p.api.Report(context.Background(), task.ID, p.cfg.WorkType, result); rerr == nil {
		p.executed.Add(1)
	}
	if p.rec != nil {
		p.rec.Record(telemetry.TaskEnd, p.cfg.Name, task.ID)
	}
	p.owned.Add(-1)
}
