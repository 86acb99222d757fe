// Package pool implements OSPREY's heterogeneous worker pools (paper §IV-D).
//
// A pool is the stand-in for the paper's Swift/T pilot-job application: a
// fixed set of workers that query the EMEWS DB output queue for tasks of the
// pool's work type, execute them concurrently, and report results to the
// input queue. The workers are goroutines that live as long as Run: the
// fetcher queries, the dispatcher takes each task's core slots and hands the
// task to an idle worker, and no goroutine is started per task. The pool's
// querying is governed by two knobs studied in Figure 3:
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
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/telemetry"
	"osprey/internal/wait"
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

	// inQuery is the deficit query in flight (nil between queries), which
	// expireQuery ends when Run's ctx does.
	queryMu sync.Mutex
	inQuery context.Context
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

// Executed returns the number of tasks completed so far.
func (p *Pool) Executed() int { return int(p.executed.Load()) }

// Failed returns the number of task executions that returned an error.
func (p *Pool) Failed() int { return int(p.failed.Load()) }

// Run starts the pool's Workers worker goroutines and blocks until ctx is
// canceled. The workers live as long as Run: a task runs on one of them, not
// on a goroutine of its own. On return all workers have exited; tasks that
// were fetched but never started remain marked running in the database and
// can be recovered with Session.RequeueRunning (the paper's fault-tolerance
// path, §II-B1c).
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
	cores := make(chan struct{}, p.cfg.Workers)
	jobs := make(chan job)

	var wg sync.WaitGroup
	wg.Add(p.cfg.Workers + 1)
	for range p.cfg.Workers {
		go func() {
			defer wg.Done()
			p.work(jobs, cores, completions)
		}()
	}
	go func() {
		defer wg.Done()
		p.dispatch(ctx, taskCh, cores, jobs)
	}()
	stop := context.AfterFunc(ctx, p.expireQuery)
	defer stop()
	p.fetch(ctx, taskCh, completions)
	wg.Wait()
	return ctx.Err()
}

// job is a task handed to a worker with the core slots it holds.
type job struct {
	task core.Task
	need int
}

// dispatch assigns tasks to worker-core slots. Cores are a weighted
// semaphore of Workers units; a k-core task (Config.CoresOf) holds k units,
// modeling Swift/T running MPI executables across several workers. The
// dispatcher is the only acquirer, so large tasks cannot deadlock: they
// simply wait until enough cores free up. Every running task holds at least
// one unit, so once a task's units are taken a worker is free to take it.
// dispatch closes jobs when ctx ends, which lets the workers exit.
func (p *Pool) dispatch(ctx context.Context, taskCh <-chan core.Task, cores chan<- struct{}, jobs chan<- job) {
	defer close(jobs)
	for {
		var task core.Task
		select {
		case task = <-taskCh:
		case <-ctx.Done():
			return
		}
		need := 1
		if p.cfg.CoresOf != nil {
			need = min(max(p.cfg.CoresOf(task.Payload), 1), p.cfg.Workers)
		}
		for range need {
			select {
			case cores <- struct{}{}:
			case <-ctx.Done():
				return
			}
		}
		jobs <- job{task, need}
	}
}

// work is one worker: it runs the tasks dispatch hands it until jobs closes,
// releasing each task's cores and signalling its completion to fetch.
func (p *Pool) work(jobs <-chan job, cores <-chan struct{}, completions chan<- struct{}) {
	for j := range jobs {
		p.busy.Add(int64(j.need))
		p.execute(j.task)
		p.busy.Add(int64(-j.need))
		for range j.need {
			<-cores
		}
		select {
		case completions <- struct{}{}:
		default:
		}
	}
}

// queryTimeout is the deadline of one deficit query. The pool only queries
// while it believes the queue holds work, so this bounds a query that raced
// another pool to the last tasks, not an idle wait.
const queryTimeout = 50 * time.Millisecond

// query issues one deficit query and hands the obtained tasks to dispatch.
// It returns the number of tasks obtained; ok is false only for non-timeout
// errors (a timeout is the backend's normal "queue empty" answer). The query
// takes a pooled deadline, which does not derive from ctx: ctx's end expires
// it through expireQuery, so a cancelled Run does not wait it out.
func (p *Pool) query(ctx context.Context, deficit int, taskCh chan<- core.Task) (n int, ok bool) {
	qctx, release := wait.Deadline(queryTimeout)
	p.setQuery(qctx)
	var res core.TasksRes
	var err error
	if ctx.Err() == nil { // else ctx ended before expireQuery could see qctx
		res, err = p.api.QueryTasks(qctx, p.cfg.WorkType, deficit, p.cfg.Name)
	}
	p.setQuery(nil)
	release()
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

// setQuery records the deficit query in flight, nil once it returned.
func (p *Pool) setQuery(qctx context.Context) {
	p.queryMu.Lock()
	p.inQuery = qctx
	p.queryMu.Unlock()
}

// expireQuery ends the deficit query in flight, if any. Run calls it when
// its ctx ends.
func (p *Pool) expireQuery() {
	p.queryMu.Lock()
	wait.Expire(p.inQuery)
	p.queryMu.Unlock()
}

// fetch keeps the pool supplied with tasks — the enhanced worker-pool query
// of §IV-D (request up to BatchSize - owned tasks whenever that deficit
// reaches Threshold), driven by push instead of a timer: a subscription to
// the queued transitions of the pool's work type says when the out queue has
// work, and the pool queries only while it believes tasks are available. An
// idle pool — no queued work, no deficit — parks in the select below issuing
// no reads at all, where the paper's poll loop burns a query per delay per
// pool regardless of load.
func (p *Pool) fetch(ctx context.Context, taskCh chan<- core.Task, completions <-chan struct{}) {
	// backoff paces a failed query or subscribe, so a restarting or
	// failing-over backend is not hammered by a hot retry loop.
	var backoff wait.Backoff
	// subscribe opens the pool's stream after the resume position, retrying a
	// failed attempt (a dial error, a draining or not-yet-attached node) at
	// the backoff pace for as long as ctx lives; nil once ctx is done. The
	// stream carries only queued transitions and resync seams, not the pool's
	// own tasks' running and complete ones, so Watch's default buffer holds
	// what arrives between two reads.
	subscribe := func(since uint64) watch.Stream {
		for {
			st, err := p.api.Watch(ctx, watch.Query{WorkType: p.cfg.WorkType, Queued: true, Since: since}, 0)
			if err == nil {
				return st
			}
			if !backoff.Wait(ctx) {
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
	// read takes one receive from the stream: a batch moves last and avail,
	// and an ended stream is resubscribed from last. false once ctx is done.
	read := func(batch []watch.Event, ok bool) bool {
		if !ok {
			// Stream ended (overflow, hub reset, connection loss on a
			// non-failover client): resubscribe from the last seen token.
			// Events may have been missed in between, so assume work.
			avail = true
			st.Close()
			st = nil
			if !backoff.Wait(ctx) {
				return false
			}
			st = subscribe(last)
			return st != nil
		}
		for _, ev := range batch {
			if ev.Token > last {
				last = ev.Token
			}
			if ev.Status == watch.StatusQueued || ev.Resync {
				// A resync seam means transitions were compacted away:
				// queue state is unknown, so assume work until a query says
				// otherwise.
				avail = true
			}
		}
		return true
	}
	for ctx.Err() == nil {
		deficit := p.cfg.BatchSize - int(p.owned.Load())
		if deficit >= p.cfg.Threshold && avail {
			// Read the batches already waiting first, without blocking: a
			// run of queries that each fill their deficit would otherwise
			// leave the stream unread until it overflows.
			select {
			case batch, ok := <-st.Events():
				if !read(batch, ok) {
					return
				}
				continue
			default:
			}
			n, ok := p.query(ctx, deficit, taskCh)
			switch {
			case !ok:
				// Transport or backend failure (not an empty queue).
				if !backoff.Wait(ctx) {
					return
				}
			case n < deficit:
				// The queue had less than asked for: it is now empty of this
				// work type, so stop querying until a queued event arrives.
				avail = false
				backoff.Reset()
			default:
				backoff.Reset()
			}
			continue
		}
		select {
		case <-completions:
			// Owned dropped; reconsider the deficit.
		case batch, ok := <-st.Events():
			if !read(batch, ok) {
				return
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
