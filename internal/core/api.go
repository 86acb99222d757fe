// Package core implements the OSPREY EMEWS task database (EQSQL): the
// fault-tolerant task queuing and execution layer at the center of the
// paper's prototype architecture (§IV-C, §V-A).
//
// Tasks are submitted by model-exploration (ME) algorithms with an
// experiment id, an integer work type, a JSON payload, a priority, and
// optional metadata tags. They are stored in a resource-local SQL database
// (package minisql) across five tables — tasks, output queue, input queue,
// experiments, and tags — exactly mirroring the paper's schema. Worker pools
// pop typed tasks off the output queue ordered by priority; completed results
// are pushed onto the input queue where ME algorithms retrieve them.
//
// Because the queues live in the database and not in the ME process, tasks
// and results survive resource failures: tasks stuck "running" on a crashed
// pool can be requeued (RequeueRunning), and the whole database can be
// snapshotted and restored on another resource.
package core

import (
	"errors"
	"time"
)

// Status is the lifecycle state of a task (paper §IV-C).
type Status string

// Task lifecycle states.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusComplete Status = "complete"
	StatusCanceled Status = "canceled"
)

// ErrTimeout is returned by the polling queries when the delay/timeout
// expires before a matching task or result appears. It corresponds to the
// paper's {'type': 'status', 'payload': 'TIMEOUT'} response.
var ErrTimeout = errors.New("eqsql: timeout")

// ErrClosed is returned when the database has been shut down.
var ErrClosed = errors.New("eqsql: database closed")

// Task is one row of the tasks table joined with its queue state.
type Task struct {
	ID       int64
	ExpID    string
	WorkType int
	Status   Status
	Payload  string
	Result   string
	Pool     string
	Priority int
	Created  time.Time
	Started  time.Time
	Stopped  time.Time
}

// TaskResult pairs a completed task id with its result payload.
type TaskResult struct {
	ID     int64
	Result string
}

// SubmitOptions carries the optional arguments of submit_task (§IV-A):
// priority (defaults to 0), metadata tags, and an idempotency dedup key.
type SubmitOptions struct {
	Priority int
	Tags     []string
	DedupKey string
}

// SubmitOption mutates SubmitOptions.
type SubmitOption func(*SubmitOptions)

// WithPriority sets the task priority; higher priorities pop first.
func WithPriority(p int) SubmitOption {
	return func(o *SubmitOptions) { o.Priority = p }
}

// WithTags attaches metadata tag strings to the task.
func WithTags(tags ...string) SubmitOption {
	return func(o *SubmitOptions) { o.Tags = append(o.Tags, tags...) }
}

// WithDedupKey makes the submit idempotent under the given client-chosen key:
// if a task with the same dedup key already exists, the submit inserts
// nothing and returns the original task's id. This is what disambiguates a
// retry after an ambiguous failure (e.g. a quorum timeout that may or may not
// have committed locally): retrying with the same key can never create a
// duplicate task. Keys live in the tasks table and replicate with it, so
// deduplication holds across leader failover too.
func WithDedupKey(key string) SubmitOption {
	return func(o *SubmitOptions) { o.DedupKey = key }
}

// Token is a commit token: the WAL index of the log entry a mutating
// operation produced. A write's token identifies exactly that write in the
// replication stream, so the service layer can hold the write's
// acknowledgement until precisely its own entry is quorum-replicated (no
// over-wait on later concurrent writes), and a reader can pass the token back
// as a minimum-freshness bound — any replica whose applied index has reached
// the token is guaranteed to reflect the write (read-your-writes). Token 0
// means "no entry" (a no-op write, or a backend without a statement log) and
// imposes no freshness bound.
type Token = uint64
