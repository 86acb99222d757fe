// Package sched simulates an HPC cluster batch scheduler (Slurm/PBS in the
// paper). OSPREY worker pools run as pilot jobs: a job is submitted to a
// cluster's queue, waits for free cores plus a site-specific queue delay,
// and then runs. This reproduces the behaviour visible in the paper's
// Figure 4, where worker pools 2 and 3 are started during reprioritizations
// but "do not immediately start consuming tasks at that time due to delays
// between submitting a worker pool job to Bebop and it actually beginning".
//
// The simulator models nodes×cores capacity with FIFO admission, per-job
// core requests, configurable submit→start delay distributions, walltime
// limits, and preemption, all scaled by the repository-wide TimeScale.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// JobState is the lifecycle state of a batch job.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobCanceled  JobState = "canceled"
	JobPreempted JobState = "preempted"
	JobTimeout   JobState = "timeout"
)

// Errors returned by the scheduler.
var (
	ErrTooLarge = errors.New("sched: job requests more cores than the cluster has")
	ErrStopped  = errors.New("sched: cluster stopped")
)

// DelayFunc draws a submit→start queue delay in paper-seconds.
type DelayFunc func(rng *rand.Rand) float64

// ConstantDelay returns a DelayFunc with a fixed delay.
func ConstantDelay(paperSeconds float64) DelayFunc {
	return func(*rand.Rand) float64 { return paperSeconds }
}

// Config describes one simulated cluster.
type Config struct {
	Name         string
	Nodes        int
	CoresPerNode int
	// QueueDelay models scheduler wait beyond capacity contention. Nil
	// means immediate start when cores are free.
	QueueDelay DelayFunc
	// TimeScale converts paper-seconds to wall-seconds (default 1).
	TimeScale float64
	// Seed makes queue delays reproducible.
	Seed int64
}

// JobFunc is the body of a pilot job. ctx is canceled on preemption,
// cancellation, walltime expiry, or cluster shutdown.
type JobFunc func(ctx context.Context)

// Job is a handle on one submitted batch job.
type Job struct {
	ID    int
	Cores int

	c      *Cluster
	cancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	started   time.Time
	submitted time.Time
	done      chan struct{}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cluster simulates one HPC resource.
type Cluster struct {
	cfg   Config
	scale float64

	mu      sync.Mutex
	rng     *rand.Rand
	nextID  int
	free    int
	queue   []*pendingJob
	running map[int]*Job
	stopped bool
}

type pendingJob struct {
	job      *Job
	fn       JobFunc
	walltime time.Duration // wall-clock; 0 = unlimited
	ready    time.Time     // earliest start (queue delay)
}

// New creates a cluster simulator.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("sched: cluster %q needs positive nodes and cores", cfg.Name)
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	return &Cluster{
		cfg:     cfg,
		scale:   cfg.TimeScale,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		free:    cfg.Nodes * cfg.CoresPerNode,
		running: make(map[int]*Job),
	}, nil
}

// TotalCores returns the cluster capacity in cores.
func (c *Cluster) TotalCores() int { return c.cfg.Nodes * c.cfg.CoresPerNode }

// Submit queues fn as a batch job requesting cores, with an optional
// walltime limit in paper-seconds (0 = unlimited).
func (c *Cluster) Submit(cores int, walltimePaperSeconds float64, fn JobFunc) (*Job, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("sched: job must request at least one core")
	}
	if cores > c.TotalCores() {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, cores, c.TotalCores())
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, ErrStopped
	}
	c.nextID++
	job := &Job{
		ID:        c.nextID,
		Cores:     cores,
		c:         c,
		state:     JobQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	delay := 0.0
	if c.cfg.QueueDelay != nil {
		delay = c.cfg.QueueDelay(c.rng)
	}
	p := &pendingJob{
		job:   job,
		fn:    fn,
		ready: time.Now().Add(time.Duration(delay * c.scale * float64(time.Second))),
	}
	if walltimePaperSeconds > 0 {
		p.walltime = time.Duration(walltimePaperSeconds * c.scale * float64(time.Second))
	}
	c.queue = append(c.queue, p)
	c.mu.Unlock()

	go c.tryStartAfter(time.Until(p.ready))
	return job, nil
}

func (c *Cluster) tryStartAfter(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
	c.startEligible()
}

// startEligible launches queued jobs in FIFO order while capacity and
// queue-delay readiness allow.
func (c *Cluster) startEligible() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	now := time.Now()
	rest := c.queue[:0]
	for i, p := range c.queue {
		if p.job.State() != JobQueued {
			continue // canceled while queued
		}
		if p.ready.After(now) || p.job.Cores > c.free {
			// FIFO: once a job must wait, later jobs wait too (no backfill:
			// mirrors the conservative behaviour seen in the paper's runs).
			rest = append(rest, c.queue[i:]...)
			break
		}
		c.free -= p.job.Cores
		c.launch(p)
	}
	c.queue = append([]*pendingJob(nil), rest...)
}

// launch starts a job; the caller holds c.mu.
func (c *Cluster) launch(p *pendingJob) {
	ctx, cancel := context.WithCancel(context.Background())
	job := p.job
	job.mu.Lock()
	job.state = JobRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()
	c.running[job.ID] = job

	var timer *time.Timer
	if p.walltime > 0 {
		timer = time.AfterFunc(p.walltime, func() { c.terminate(job, JobTimeout) })
	}
	go func() {
		defer cancel()
		p.fn(ctx)
		if timer != nil {
			timer.Stop()
		}
		c.finish(job, JobCompleted)
	}()
}

// finish moves a job to a terminal state and frees its cores.
func (c *Cluster) finish(j *Job, state JobState) {
	j.mu.Lock()
	if j.state == JobCompleted || j.state == JobCanceled ||
		j.state == JobPreempted || j.state == JobTimeout {
		j.mu.Unlock()
		return
	}
	wasRunning := j.state == JobRunning
	j.state = state
	j.mu.Unlock()
	close(j.done)

	c.mu.Lock()
	if wasRunning {
		delete(c.running, j.ID)
		c.free += j.Cores
	}
	c.mu.Unlock()
	if wasRunning {
		c.startEligible()
	}
}

// terminate cancels/preempts a job in any non-terminal state. The terminal
// state is claimed before the job's context is cancelled: the job's goroutine
// answers the cancel by returning and calling finish(JobCompleted), and the
// first finish wins.
func (c *Cluster) terminate(j *Job, state JobState) {
	c.finish(j, state)
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stop shuts the cluster down, canceling all queued and running jobs.
func (c *Cluster) Stop() {
	c.mu.Lock()
	c.stopped = true
	queued := append([]*pendingJob(nil), c.queue...)
	c.queue = nil
	running := make([]*Job, 0, len(c.running))
	for _, j := range c.running {
		running = append(running, j)
	}
	c.mu.Unlock()
	for _, p := range queued {
		p.job.mu.Lock()
		if p.job.state == JobQueued {
			p.job.state = JobCanceled
			close(p.job.done)
		}
		p.job.mu.Unlock()
	}
	for _, j := range running {
		c.terminate(j, JobCanceled)
	}
}
