package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/watch"
)

// op indexes the Session calls the harness times.
type op int

const (
	opSubmit op = iota
	opSubmitBatch
	opQueryTasks
	opReport
	opQueryResult
	opPopResults
	opStatuses
	opPriorities
	opUpdatePriorities
	opCounts
	opWatch
	numOps
)

var opNames = [numOps]string{
	"submit", "submit_batch", "query_tasks", "report", "query_result",
	"pop_results", "statuses", "priorities", "update_priorities", "counts", "watch",
}

// span is one timed interval: a Session call made by pool, future or the ME
// loop, or a harness interval (an ME round, a probe) that is the parent of
// the calls made inside it. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64
	Parent int64 // 0: a root
	Epoch  int   // task ids start over in every epoch
	Trace  int64 // task id, or the first task id of a batch
	Name   string
	Start  int64
	End    int64
}

// recorder collects what the harness observes from outside the program:
// per-op latency samples at the Session boundary (always), operation and
// failure counts (always), and spans (traced runs only). Samples are taken
// only while the measured window is open, so warm-up does not colour them.
type recorder struct {
	epoch   time.Time
	tracing bool

	measuring atomic.Bool // the measured window is open
	win       *window     // set before measuring, read only while measuring
	closing   atomic.Bool // tear-down: errors from cancelled calls are not failures
	attempted atomic.Int64
	failed    atomic.Int64
	spanID    atomic.Int64

	mu       sync.Mutex
	lat      [numOps]epochSamples // caller-observed latency, µs, successful calls
	allN     [numOps]int          // calls that did not fail, empty polls included
	allSumUS [numOps]float64      // their summed duration
	spans    []span
	firstErr error

	// Work done and wasted at the pool and future boundaries, in the window.
	queries      atomic.Int64 // QueryTasks calls
	emptyQueries atomic.Int64 // ... that returned no task
	popCalls     atomic.Int64 // PopResults calls
	popIDs       atomic.Int64 // ids sent in them
	popResults   atomic.Int64 // results they returned
}

func newRecorder(tracing bool) *recorder {
	r := &recorder{epoch: time.Now(), tracing: tracing}
	// The per-task ops get room for a whole run up front, so sample appends
	// do not show up in allocs_per_task.
	for _, o := range []op{opQueryTasks, opReport, opPopResults} {
		for slot := range r.lat[o] {
			r.lat[o][slot] = make([]float64, 0, 1<<16)
		}
	}
	if tracing {
		r.spans = make([]span, 0, 1<<20)
	}
	return r
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// newSpanID reserves an id for a harness span, so child calls can name it as
// their parent before it ends.
func (r *recorder) newSpanID() int64 { return r.spanID.Add(1) }

// addSpan records a finished harness span under a reserved id.
func (r *recorder) addSpan(id, trace int64, name string, start, end time.Time) {
	if !r.tracing || !r.measuring.Load() {
		return
	}
	s := span{ID: id, Epoch: r.win.epoch, Trace: trace, Name: name, Start: r.since(start), End: r.since(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// fail records a failed operation or output check.
func (r *recorder) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// done finishes one timed Session call. A poll that timed out is the
// program's normal "nothing yet" answer: it is counted as attempted, not as
// failed, and has no latency sample. Any other error is a failure and has no
// sample either. sample is false for calls whose latency is not a service
// time (a QueryTasks that returned nothing).
func (r *recorder) done(o op, parent, trace int64, t0 time.Time, err error, sample bool) {
	t1 := time.Now()
	if err != nil && (r.closing.Load() || errors.Is(err, context.Canceled)) {
		return
	}
	r.attempted.Add(1)
	timedOut := errors.Is(err, core.ErrTimeout)
	if err != nil && !timedOut {
		r.fail(fmt.Errorf("%s: %w", opNames[o], err))
		return
	}
	if !r.measuring.Load() {
		return
	}
	us := float64(t1.Sub(t0)) / 1e3
	r.mu.Lock()
	r.allN[o]++
	r.allSumUS[o] += us
	if sample && !timedOut {
		r.lat[o].add(r.win.slot(t1), us)
	}
	if r.tracing {
		r.spans = append(r.spans, span{ID: r.spanID.Add(1), Parent: parent, Epoch: r.win.epoch, Trace: trace,
			Name: opNames[o], Start: r.since(t0), End: r.since(t1)})
	}
	r.mu.Unlock()
}

// allCalls returns the count and mean duration (µs) of every call of o that
// did not fail, empty polls included: the population the server's own
// request histogram covers.
func (r *recorder) allCalls(o op) (int, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.allN[o] == 0 {
		return 0, 0
	}
	return r.allN[o], r.allSumUS[o] / float64(r.allN[o])
}

// open starts the measured window of an epoch; close ends it.
func (r *recorder) open(epoch int, length time.Duration) *window {
	r.win = &window{epoch: epoch, start: time.Now(), length: length}
	r.measuring.Store(true)
	return r.win
}

func (r *recorder) close() { r.measuring.Store(false) }

// timedSession decorates a Session (and its Watch) with the recorder. pool,
// future and the ME loop all talk to the program through one, so every call
// they make is observed at the same boundary a user's code would sit at.
// Calls the harness never makes pass straight through the embedded Session.
type timedSession struct {
	core.Session
	rec    *recorder
	parent int64 // harness span the calls belong to; 0 for pool and future internals
	quiet  bool  // the probe's side: counted and traced, but kept out of the latency samples
}

// under returns a view of t whose calls are children of the harness span
// parent.
func (t *timedSession) under(parent int64) *timedSession {
	return &timedSession{Session: t.Session, rec: t.rec, parent: parent, quiet: t.quiet}
}

// probeSide returns a view of t for the probe's calls: its single-task pops
// and reports are a different population from the load's and must not shift
// the load's medians.
func (t *timedSession) probeSide() *timedSession {
	return &timedSession{Session: t.Session, rec: t.rec, quiet: true}
}

func firstID(ids []int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	return ids[0]
}

func (t *timedSession) Submit(ctx context.Context, expID string, workType int, payload string, opts ...core.SubmitOption) (core.SubmitRes, error) {
	t0 := time.Now()
	res, err := t.Session.Submit(ctx, expID, workType, payload, opts...)
	t.rec.done(opSubmit, t.parent, res.ID, t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) SubmitBatch(ctx context.Context, expID string, workType int, payloads []string, priorities []int, dedupKeys []string) (core.BatchRes, error) {
	t0 := time.Now()
	res, err := t.Session.SubmitBatch(ctx, expID, workType, payloads, priorities, dedupKeys)
	t.rec.done(opSubmitBatch, t.parent, firstID(res.IDs), t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) QueryTasks(ctx context.Context, workType, n int, pool string) (core.TasksRes, error) {
	t0 := time.Now()
	res, err := t.Session.QueryTasks(ctx, workType, n, pool)
	if t.rec.measuring.Load() && !t.quiet {
		t.rec.queries.Add(1)
		if len(res.Tasks) == 0 {
			t.rec.emptyQueries.Add(1)
		}
	}
	var trace int64
	if len(res.Tasks) > 0 {
		trace = res.Tasks[0].ID
	}
	t.rec.done(opQueryTasks, t.parent, trace, t0, err, !t.quiet && len(res.Tasks) > 0)
	return res, err
}

func (t *timedSession) Report(ctx context.Context, taskID int64, workType int, result string) (core.Res, error) {
	t0 := time.Now()
	res, err := t.Session.Report(ctx, taskID, workType, result)
	t.rec.done(opReport, t.parent, taskID, t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) QueryResult(ctx context.Context, taskID int64) (core.ResultRes, error) {
	t0 := time.Now()
	res, err := t.Session.QueryResult(ctx, taskID)
	t.rec.done(opQueryResult, t.parent, taskID, t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) PopResults(ctx context.Context, ids []int64, max int) (core.ResultsRes, error) {
	t0 := time.Now()
	res, err := t.Session.PopResults(ctx, ids, max)
	if t.rec.measuring.Load() {
		t.rec.popCalls.Add(1)
		t.rec.popIDs.Add(int64(len(ids)))
		t.rec.popResults.Add(int64(len(res.Results)))
	}
	t.rec.done(opPopResults, t.parent, firstID(ids), t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) Statuses(ctx context.Context, ids []int64, opts ...core.ReadOption) (map[int64]core.Status, error) {
	t0 := time.Now()
	res, err := t.Session.Statuses(ctx, ids, opts...)
	t.rec.done(opStatuses, t.parent, firstID(ids), t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) Priorities(ctx context.Context, ids []int64, opts ...core.ReadOption) (map[int64]int, error) {
	t0 := time.Now()
	res, err := t.Session.Priorities(ctx, ids, opts...)
	t.rec.done(opPriorities, t.parent, firstID(ids), t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) UpdatePriorities(ctx context.Context, ids []int64, priorities []int) (core.CountRes, error) {
	t0 := time.Now()
	res, err := t.Session.UpdatePriorities(ctx, ids, priorities)
	t.rec.done(opUpdatePriorities, t.parent, firstID(ids), t0, err, !t.quiet)
	return res, err
}

func (t *timedSession) Counts(ctx context.Context, expID string, opts ...core.ReadOption) (map[core.Status]int, error) {
	t0 := time.Now()
	res, err := t.Session.Counts(ctx, expID, opts...)
	t.rec.done(opCounts, t.parent, 0, t0, err, !t.quiet)
	return res, err
}

// Watch times the subscribe round trip; the stream itself is the program's.
// Every backend the benchmark boots implements watch.Session.
func (t *timedSession) Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error) {
	t0 := time.Now()
	st, err := t.Session.(watch.Session).Watch(ctx, q, buf)
	t.rec.done(opWatch, t.parent, q.TaskID, t0, err, !t.quiet)
	if err != nil {
		// pool.fetchWatch defers a Close on the stream of its last
		// resubscribe, and a resubscribe that loses the race with the
		// pool's cancellation returns a nil stream: the pool then panics on
		// the way out (seed-state finding 3 in README.md). The benchmark
		// must be able to stop a pool, so a failed Watch hands back an
		// ended stream beside the error instead of nil.
		return endedStream{err}, err
	}
	return st, nil
}

// endedStream is a watch.Stream that has already ended with err.
type endedStream struct{ err error }

var noEvents = func() chan []watch.Event {
	c := make(chan []watch.Event)
	close(c)
	return c
}()

func (endedStream) Events() <-chan []watch.Event { return noEvents }
func (s endedStream) Err() error                 { return s.err }
func (endedStream) Close() error                 { return nil }

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once, and a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name                  string
	count                 int
	meanUS, selfUS, p99US float64
}

// spanStats groups spans by name and reports count, mean duration, mean self
// time and p99 duration of each group, ordered by name.
func spanStats(spans []span) []spanStat {
	self := selfTimes(spans)
	durations := make(map[string][]float64)
	selfSum := make(map[string]float64)
	for _, s := range spans {
		durations[s.Name] = append(durations[s.Name], float64(s.End-s.Start)/1e3)
		selfSum[s.Name] += float64(self[s.ID]) / 1e3
	}
	out := make([]spanStat, 0, len(durations))
	for name, ds := range durations {
		sort.Float64s(ds)
		out = append(out, spanStat{name: name, count: len(ds), meanUS: mean(ds),
			selfUS: selfSum[name] / float64(len(ds)), p99US: percentile(ds, 99)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeTrace writes the spans of a traced run to dir/<workload>.trace.json.
func writeTrace(dir, workload string, seed int64, rec *recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"t0_unix_ns":%d,"time_unit":"ns since t0","spans":[`,
		workload, seed, rec.epoch.UnixNano())
	rec.mu.Lock()
	var buf []byte
	for i, s := range rec.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"id\":"...)
		buf = strconv.AppendInt(buf, s.ID, 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, s.Parent, 10)
		buf = append(buf, ",\"epoch\":"...)
		buf = strconv.AppendInt(buf, int64(s.Epoch), 10)
		buf = append(buf, ",\"trace\":"...)
		buf = strconv.AppendInt(buf, s.Trace, 10)
		buf = append(buf, ",\"name\":"...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, ",\"start\":"...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ",\"end\":"...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	rec.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
