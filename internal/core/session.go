package core

import (
	"context"
	"errors"

	"osprey/internal/watch"
)

// This file defines the EMEWS DB surface: one context-first, commit-token-
// aware Session interface shared by the in-process database and the remote
// service clients. Every mutating operation of a Session, pops included,
// returns its commit token inside a small result struct — so a session that
// pops a task on the leader and then reads its status from a follower
// observes the post-pop state — and reads take per-call consistency levels
// instead of a client-global staleness knob.

// Level is a per-read consistency level.
type Level uint8

const (
	// LevelSession (the default) bounds the read by the session's commit
	// token: any replica that has applied the WAL through the token may serve
	// it, giving read-your-writes — and, with tokens on pops, read-your-pops —
	// plus monotonic reads within the session.
	LevelSession Level = iota
	// LevelStrong serves the read from the cluster leader's current state:
	// the freshest answer the cluster can give, at the cost of leader load
	// (a follower redirects it to the leader).
	LevelStrong
	// LevelEventual serves the read from any replica with no freshness bound:
	// the cheapest read, a best-effort snapshot exactly like a token-0 read.
	LevelEventual
)

func (l Level) String() string {
	switch l {
	case LevelStrong:
		return "strong"
	case LevelEventual:
		return "eventual"
	default:
		return "session"
	}
}

// ReadOptions collects the per-call options of a Session read.
type ReadOptions struct {
	Level Level
}

// ReadOption mutates ReadOptions.
type ReadOption func(*ReadOptions)

// Strong requests leader-fresh consistency for this read.
func Strong() ReadOption { return func(o *ReadOptions) { o.Level = LevelStrong } }

// Eventual drops the session freshness bound for this read: any replica may
// answer immediately.
func Eventual() ReadOption { return func(o *ReadOptions) { o.Level = LevelEventual } }

// ApplyReadOptions folds opts into a ReadOptions value — a helper for Session
// implementers.
func ApplyReadOptions(opts []ReadOption) ReadOptions {
	var o ReadOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Res carries the commit token of a mutating operation with no other result.
type Res struct{ Token Token }

// SubmitRes is the result of Session.Submit.
type SubmitRes struct {
	ID    int64
	Token Token
}

// BatchRes is the result of Session.SubmitBatch.
type BatchRes struct {
	IDs   []int64
	Token Token
}

// TasksRes is the result of Session.QueryTasks: the popped tasks and the pop
// transaction's own commit token.
type TasksRes struct {
	Tasks []Task
	Token Token
}

// ResultRes is the result of Session.QueryResult.
type ResultRes struct {
	Result string
	Token  Token
}

// ResultsRes is the result of Session.PopResults.
type ResultsRes struct {
	Results []TaskResult
	Token   Token
}

// CountRes is the result of the counting mutations (UpdatePriorities,
// CancelTasks, RequeueRunning).
type CountRes struct {
	Count int
	Token Token
}

// Session is the EMEWS DB task interface: one surface shared by the
// in-process database (DB), the remote service client (service.Client),
// and the failover-aware cluster client (service.DialCluster), so ME
// algorithms and worker pools run unchanged against any of them (paper §IV-C,
// §V-A).
//
// Every operation takes a leading context; the polling operations
// (QueryTasks, QueryResult, PopResults) derive their deadline from it and
// return ErrTimeout when it expires with nothing to deliver. Every mutating
// operation — the pop paths included, since popping mutates the queues —
// returns the commit token of its own WAL entry. A Session tracks the highest
// token any of its operations observed (Token) and reads default to that
// session bound: after a pop through a Session, a follower-served status read
// through the same Session is guaranteed to see the post-pop state.
type Session interface {
	// Submit inserts a task and pushes it onto the output queue.
	Submit(ctx context.Context, expID string, workType int, payload string, opts ...SubmitOption) (SubmitRes, error)

	// SubmitBatch inserts a batch of tasks in one transaction (one network
	// round trip through the service). priorities must be empty (all zero),
	// have one element (applied to all), or one per payload. dedupKeys is nil
	// or one key per payload ("" entries are not deduplicated); payloads
	// whose key already exists are skipped and report the original task id in
	// their position.
	SubmitBatch(ctx context.Context, expID string, workType int, payloads []string, priorities []int, dedupKeys []string) (BatchRes, error)

	// QueryTasks pops up to n of the highest-priority queued tasks of the
	// given work type, marking them running and owned by pool. It polls until
	// at least one task is available or ctx expires (ErrTimeout).
	QueryTasks(ctx context.Context, workType, n int, pool string) (TasksRes, error)

	// Report records the result of a running task, marks it complete, and
	// pushes it onto the input queue.
	Report(ctx context.Context, taskID int64, workType int, result string) (Res, error)

	// QueryResult polls the input queue for the completed task, pops it, and
	// returns its result payload.
	QueryResult(ctx context.Context, taskID int64) (ResultRes, error)

	// PopResults pops up to max completed results belonging to ids from the
	// input queue, polling until at least one is available or ctx expires.
	PopResults(ctx context.Context, ids []int64, max int) (ResultsRes, error)

	// Statuses returns the status of each existing task in ids.
	Statuses(ctx context.Context, ids []int64, opts ...ReadOption) (map[int64]Status, error)

	// Priorities returns the current output-queue priority of each task in
	// ids that is still queued.
	Priorities(ctx context.Context, ids []int64, opts ...ReadOption) (map[int64]int, error)

	// UpdatePriorities sets new priorities on the still-queued tasks in ids
	// as a single batch transaction (§V-B). priorities must have either one
	// element (applied to all) or len(ids) elements.
	UpdatePriorities(ctx context.Context, ids []int64, priorities []int) (CountRes, error)

	// CancelTasks removes still-queued tasks from the output queue and marks
	// them canceled.
	CancelTasks(ctx context.Context, ids []int64) (CountRes, error)

	// RequeueRunning returns tasks owned by a (presumed crashed) worker pool
	// to the output queue at their previous priority.
	RequeueRunning(ctx context.Context, pool string) (CountRes, error)

	// Counts reports the number of tasks per status for an experiment
	// ("" for all experiments).
	Counts(ctx context.Context, expID string, opts ...ReadOption) (map[Status]int, error)

	// Tags returns the metadata tags recorded for a task.
	Tags(ctx context.Context, taskID int64, opts ...ReadOption) ([]string, error)

	// GetTask returns the full task row without touching the queues.
	GetTask(ctx context.Context, taskID int64, opts ...ReadOption) (Task, error)

	// Watch opens a push stream of the task-state transitions matching q,
	// resuming after q.Since; buf is the stream's batch buffer (<= 0 picks
	// the implementation's default). It is what pools and futures block on
	// instead of polling. The stream ends when ctx is done, Close is called,
	// or the backend drops it (Stream.Err says why) — resubscribe with the
	// last token seen.
	Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error)

	// Token returns the session's high-water commit token: the newest WAL
	// index any operation of this session has produced or observed. It is the
	// default freshness bound of LevelSession reads, and can be handed to
	// another session to extend the guarantee across sessions.
	Token() Token
}

// CtxErr maps a finished context to the API's timeout semantics: a deadline
// expiry is the paper's TIMEOUT answer (ErrTimeout), a cancellation surfaces
// as itself. Every Session implementation (DB and the service clients)
// shares this mapping.
func CtxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ctx.Err()
}

func ctxErr(ctx context.Context) error { return CtxErr(ctx) }
