package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

const waitMax = 5 * time.Second

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

func TestImmediateStart(t *testing.T) {
	c, err := New(Config{Name: "test", Nodes: 1, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ran := make(chan struct{})
	job, err := c.Submit(2, 0, func(ctx context.Context) { close(ran) })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-ran:
	case <-time.After(waitMax):
		t.Fatal("job never ran")
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if job.State() != JobCompleted {
		t.Fatalf("state = %v", job.State())
	}
	if c.FreeCores() != 4 {
		t.Fatalf("free cores = %d after completion", c.FreeCores())
	}
}

func TestCapacityBlocking(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 4})
	defer c.Stop()
	release := make(chan struct{})
	var running atomic.Int32
	body := func(ctx context.Context) {
		running.Add(1)
		defer running.Add(-1)
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	j1, _ := c.Submit(3, 0, body)
	j2, _ := c.Submit(3, 0, body) // does not fit until j1 finishes
	waitFor(t, func() bool { return running.Load() == 1 }, "first job never started")
	time.Sleep(20 * time.Millisecond)
	if j2.State() != JobQueued {
		t.Fatalf("second job state = %v, want queued (only 1 core free)", j2.State())
	}
	close(release)
	waitFor(t, func() bool { return j2.State() == JobCompleted }, "second job never completed")
	_ = j1
}

func TestQueueDelay(t *testing.T) {
	// 5 paper-seconds at scale 0.01 = 50 ms wall.
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 4,
		QueueDelay: ConstantDelay(5), TimeScale: 0.01})
	defer c.Stop()
	started := make(chan time.Time, 1)
	submitted := time.Now()
	job, _ := c.Submit(1, 0, func(ctx context.Context) { started <- time.Now() })
	select {
	case ts := <-started:
		wall := ts.Sub(submitted)
		if wall < 40*time.Millisecond {
			t.Fatalf("job started after %v, queue delay not applied", wall)
		}
	case <-time.After(waitMax):
		t.Fatal("job never started")
	}
	job.Wait(context.Background())
	if qw := job.QueueWait(); qw < 4 || qw > 30 {
		t.Fatalf("QueueWait = %v paper-seconds, want ~5", qw)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 2,
		QueueDelay: ConstantDelay(10), TimeScale: 0.01})
	defer c.Stop()
	ran := atomic.Bool{}
	job, _ := c.Submit(1, 0, func(ctx context.Context) { ran.Store(true) })
	job.Cancel()
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.State() != JobCanceled {
		t.Fatalf("state = %v", job.State())
	}
	time.Sleep(150 * time.Millisecond)
	if ran.Load() {
		t.Fatal("canceled job still ran")
	}
}

func TestCancelRunningJob(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 2})
	defer c.Stop()
	canceled := make(chan struct{})
	job, _ := c.Submit(1, 0, func(ctx context.Context) {
		<-ctx.Done()
		close(canceled)
	})
	waitFor(t, func() bool { return job.State() == JobRunning }, "job never ran")
	job.Cancel()
	select {
	case <-canceled:
	case <-time.After(waitMax):
		t.Fatal("running job's ctx was not canceled")
	}
	if job.State() != JobCanceled {
		t.Fatalf("state = %v", job.State())
	}
	waitFor(t, func() bool { return c.FreeCores() == 2 }, "cores not released")
}

func TestWalltimeLimit(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 2, TimeScale: 0.01})
	defer c.Stop()
	job, _ := c.Submit(1, 3, func(ctx context.Context) { // 3 paper-sec = 30 ms
		<-ctx.Done()
	})
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.State() != JobTimeout {
		t.Fatalf("state = %v, want timeout", job.State())
	}
}

func TestPreempt(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 4})
	defer c.Stop()
	j1, _ := c.Submit(1, 0, func(ctx context.Context) { <-ctx.Done() })
	waitFor(t, func() bool { return j1.State() == JobRunning }, "j1 never ran")
	j2, _ := c.Submit(1, 0, func(ctx context.Context) { <-ctx.Done() })
	waitFor(t, func() bool { return j2.State() == JobRunning }, "j2 never ran")
	if !c.Preempt() {
		t.Fatal("Preempt found no victim")
	}
	// Most recent job (j2) is the victim.
	waitFor(t, func() bool { return j2.State() == JobPreempted }, "j2 not preempted")
	if j1.State() != JobRunning {
		t.Fatalf("j1 state = %v, want running", j1.State())
	}
	if c.Preempt() {
		// j1 is still running so a second preempt succeeds.
		waitFor(t, func() bool { return j1.State() == JobPreempted }, "j1 not preempted")
	}
	if c.Preempt() {
		t.Fatal("Preempt succeeded with nothing running")
	}
}

func TestFIFOOrder(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 1})
	defer c.Stop()
	var order []int
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(id int) func(context.Context) {
		return func(ctx context.Context) {
			<-mu
			order = append(order, id)
			mu <- struct{}{}
		}
	}
	j1, _ := c.Submit(1, 0, record(1))
	j2, _ := c.Submit(1, 0, record(2))
	j3, _ := c.Submit(1, 0, record(3))
	for _, j := range []*Job{j1, j2, j3} {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	<-mu
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
}

func TestSubmitErrors(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 2})
	if _, err := c.Submit(3, 0, func(context.Context) {}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize submit err = %v", err)
	}
	if _, err := c.Submit(0, 0, func(context.Context) {}); err == nil {
		t.Fatal("zero-core submit must error")
	}
	c.Stop()
	if _, err := c.Submit(1, 0, func(context.Context) {}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop err = %v", err)
	}
}

func TestStopCancelsEverything(t *testing.T) {
	c, _ := New(Config{Name: "t", Nodes: 1, CoresPerNode: 1,
		QueueDelay: ConstantDelay(100), TimeScale: 0.01})
	running, _ := c.Submit(1, 0, func(ctx context.Context) { <-ctx.Done() })
	// This one is stuck behind the delay.
	queued, _ := c.Submit(1, 0, func(ctx context.Context) {})
	_ = running
	c.Stop()
	if err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if queued.State() != JobCanceled {
		t.Fatalf("queued job state = %v", queued.State())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad"}); err == nil {
		t.Fatal("zero-capacity cluster must error")
	}
}

func TestClusterAccessors(t *testing.T) {
	c, _ := New(Config{Name: "bebop", Nodes: 2, CoresPerNode: 36})
	defer c.Stop()
	if c.Name() != "bebop" || c.TotalCores() != 72 {
		t.Fatalf("accessors: %s %d", c.Name(), c.TotalCores())
	}
	if c.QueueLength() != 0 || c.RunningJobs() != 0 {
		t.Fatal("fresh cluster not idle")
	}
}

// TestTerminalStateSurvivesCancelRace: a job that returns the moment its
// context is cancelled must still end in the state that stopped it — timeout,
// canceled or preempted — never in completed. The job's goroutine and the
// terminator race to record the terminal state. Each job hangs a few hundred
// child contexts off its own: cancelling closes the job's Done channel first
// and only then walks the children, so the job is awake and returning while
// the terminator is still inside cancel — the window a loaded machine opens
// by descheduling the terminator there.
func TestTerminalStateSurvivesCancelRace(t *testing.T) {
	for round := 0; round < 100; round++ {
		c, err := New(Config{Name: "t", Nodes: 1, CoresPerNode: 3, TimeScale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		// The children are released by the test, not by the job on its way
		// out: releasing one takes the parent's lock, which cancel holds.
		ready := make(chan []context.CancelFunc, 3)
		returnsOnCancel := func(ctx context.Context) {
			children := make([]context.CancelFunc, 500)
			for i := range children {
				_, children[i] = context.WithCancel(ctx)
			}
			ready <- children
			<-ctx.Done()
		}
		timed, _ := c.Submit(1, 0.5, returnsOnCancel) // 0.5 paper-sec = 5 ms
		canceled, _ := c.Submit(1, 0, returnsOnCancel)
		preempted, _ := c.Submit(1, 0, returnsOnCancel)
		var children []context.CancelFunc
		for i := 0; i < 3; i++ {
			children = append(children, <-ready...)
		}
		if !c.Preempt() { // the most recently started job
			t.Fatal("Preempt found no victim")
		}
		canceled.Cancel()
		for _, tc := range []struct {
			job  *Job
			want JobState
		}{{timed, JobTimeout}, {canceled, JobCanceled}, {preempted, JobPreempted}} {
			if err := tc.job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := tc.job.State(); got != tc.want {
				t.Fatalf("round %d: state = %v, want %v", round, got, tc.want)
			}
		}
		c.Stop()
		for _, release := range children {
			release()
		}
	}
}

// QueueWait returns how long the job waited before starting, in
// paper-seconds; zero if it has not started.
func (j *Job) QueueWait() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	return j.started.Sub(j.submitted).Seconds() / j.c.scale
}

// Cancel cancels the job: a queued job never starts, a running job's
// context is canceled.
func (j *Job) Cancel() { j.c.terminate(j, JobCanceled) }

// Name returns the cluster's name.
func (c *Cluster) Name() string { return c.cfg.Name }

// FreeCores returns currently unallocated cores.
func (c *Cluster) FreeCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.free
}

// QueueLength returns the number of jobs waiting to start.
func (c *Cluster) QueueLength() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// RunningJobs returns the number of currently running jobs.
func (c *Cluster) RunningJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.running)
}

// Preempt forcibly stops the most recently started job, modeling
// site-specific preemption protocols (§II-B1c). It reports whether a job
// was preempted.
func (c *Cluster) Preempt() bool {
	c.mu.Lock()
	var victim *Job
	for _, j := range c.running {
		if victim == nil || j.ID > victim.ID {
			victim = j
		}
	}
	c.mu.Unlock()
	if victim == nil {
		return false
	}
	c.terminate(victim, JobPreempted)
	return true
}
