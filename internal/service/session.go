package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/wait"
)

// transport is where a call's attempts go; it is everything that differs
// between a Client (one connection) and a ClusterClient (a leader connection
// re-resolved through failover, reads rotated across followers). It chooses
// connections and nothing else: whether to try again, and when, is decided
// in one place, the session's call loop (call).
type transport interface {
	// connect returns the connection the next attempt goes to: a Client is
	// its own connection, a ClusterClient resolves the leader.
	connect() (*Client, error)
	// settle reports how an attempt on c ended. nil ratchets the session
	// token from c; an ErrConn or ErrUnavailable gives c up, and again says
	// whether connect can offer another connection.
	settle(c *Client, err error) (again bool)
	// follow runs a read on the follower replicas before the call loop takes
	// it to the leader; done reports that one answered for good (err says
	// how), false that the leader should be asked.
	follow(req request, budget time.Duration) (resp response, done bool, err error)
	// failTimeout is how long past the call's own deadline it keeps trying.
	failTimeout() time.Duration
	// chunked reports whether a bounded poll goes in pollChunk round trips,
	// so that a connection lost silently mid-poll is noticed and the wait
	// goes on over another. A Client, which has no other, ships the whole
	// deadline in one.
	chunked() bool
	// Token is the session's commit token, a session read's freshness bound.
	Token() core.Token
}

// defaultFailTimeout is a call's retry horizon past its deadline unless
// ClusterClient.FailTimeout says otherwise: long enough to ride out several
// election rounds.
const defaultFailTimeout = 15 * time.Second

// session is the remote half of core.Session, written once: each method
// builds its op's request, runs it through the call loop and converts the
// response. Client and ClusterClient embed it, so an op added here (or a
// field stamped on every request) reaches both.
type session struct{ t transport }

// kind is what a call may do with its context, which decides how the loop
// treats it.
type kind uint8

const (
	// callOnce: a write, a control op or a read, answered within budget. A
	// finished context executes nothing.
	callOnce kind = iota
	// callPoll: a queue pop that parks server-side until ctx's deadline; an
	// expired deadline still earns one attempt, a canceled context executes
	// nothing.
	callPoll
	// callResult: a poll for one task's result, which after a failover first
	// reads the task's replicated row: the lost leader may have consumed the
	// result's queue entry (pop applied, response lost), but not the row.
	callResult
)

// pollChunk bounds one round trip of an unbounded poll, or of a bounded one
// on a chunked transport.
const pollChunk = 500 * time.Millisecond

// readStaleness bounds how long a session read lets its replica catch up to
// the session token (less when the context's deadline is sooner): past it
// the replica refuses transiently, and a ClusterClient moves on to the next
// follower, then the leader. A follower that failed or lagged is skipped by
// later reads for as long.
const readStaleness = time.Second

// call runs one request to an answer, the one place a remote call is
// retried. Each attempt goes to the transport's connection, within budget;
// a poll's attempt waits server-side for its deadline's remainder, or one
// chunk of it (budget), shipped as WaitMS rounded up so that no
// sub-millisecond rest is polled again. A shed request is resent on the
// same connection after a backoff; on ErrConn or ErrUnavailable the
// transport gives up the connection, the first redirect is followed at
// once, and later attempts back off. It keeps trying until the horizon: the
// call's deadline (ctx's, else now + budget; for an unbounded poll, its last
// answer + budget) plus the transport's failTimeout. A backoff ends as soon
// as ctx is canceled.
func (s session) call(ctx context.Context, k kind, budget time.Duration, req *request, resp *response) error {
	deadline, bounded := ctx.Deadline()
	if !bounded {
		deadline = time.Now().Add(budget)
	}
	horizon := deadline.Add(s.t.failTimeout())
	var b wait.Backoff
	var err error // the last attempt's failure; nil once a poll was answered "nothing yet"
	tried, redirected, failedOver := false, false, false
	for {
		step := budget
		switch {
		case k == callOnce:
			if ctx.Err() != nil {
				return core.CtxErr(ctx)
			}
			if bounded {
				step = min(budget, max(time.Until(deadline), time.Millisecond))
			}
		case errors.Is(ctx.Err(), context.Canceled):
			return context.Canceled
		case bounded:
			switch remain := time.Until(deadline); {
			case remain >= time.Millisecond:
				if step = remain; s.t.chunked() {
					step = min(step, budget)
				}
			case !tried:
				// An expired deadline (or less than WaitMS can say) still
				// earns one immediate attempt.
				step = 0
			case err == nil:
				return core.ErrTimeout // answered "nothing yet" all the way to the deadline
			}
			// Otherwise connection trouble ate the tail of the deadline: grace
			// chunks until the horizon, so a failover does not surface as a
			// spurious timeout.
		}
		if k != callOnce {
			req.WaitMS = int64((step + time.Millisecond - 1) / time.Millisecond)
		}
		var c *Client
		if c, err = s.t.connect(); err == nil {
			tried = true
			if k == callResult && failedOver && c.completedRow(req.TaskID, resp) {
				s.t.settle(c, nil)
				return nil
			}
			err = c.roundTrip(req, resp, step)
			switch {
			case err == nil:
				s.t.settle(c, nil)
				return nil
			case k != callOnce && errors.Is(err, core.ErrTimeout):
				err = nil
				b.Reset()
				if !bounded {
					horizon = time.Now().Add(budget + s.t.failTimeout())
				}
				continue
			case errors.Is(err, ErrOverloaded):
				// The node is healthy, just saturated, and the request never
				// executed: back off and resend it on the same connection.
			case retryable(err):
				if !s.t.settle(c, err) {
					return err
				}
				failedOver = true
				var r *redirectError
				if errors.As(err, &r) && !redirected {
					redirected = true
					continue
				}
			default:
				return err
			}
		}
		if time.Now().After(horizon) {
			return err
		}
		// Past its deadline a poll's context can no longer be canceled, and
		// its grace attempts back off in full.
		done := ctx
		if k != callOnce && ctx.Err() != nil {
			done = context.Background()
		}
		b.Wait(done)
	}
}

// retryable reports whether an error justifies another connection.
func retryable(err error) bool {
	return errors.Is(err, ErrConn) || errors.Is(err, ErrUnavailable)
}

// completedRow reads taskID's replicated row on c, the connection a failover
// led to, and reports whether it holds a completed result, which it leaves
// in resp.
func (c *Client) completedRow(taskID int64, resp *response) bool {
	req := request{Op: "task_get", TaskID: taskID, Level: "strong"}
	if c.roundTrip(&req, resp, time.Second) != nil || len(resp.Tasks) == 0 ||
		resp.Tasks[0].Status != core.StatusComplete {
		return false
	}
	resp.ResultText = resp.Tasks[0].Result
	return true
}

// write runs a write or a control op through the call loop.
func (s session) write(ctx context.Context, budget time.Duration, req request) (resp response, err error) {
	err = s.call(ctx, callOnce, budget, &req, &resp)
	return resp, err
}

// read runs a read at the consistency level opts select: strong on the
// leader; eventual with no freshness bound; session-level (the default)
// bounded by the session token, which the replica may wait up to
// readStaleness to reach. The transport's followers get the read first
// unless it is strong, the call loop's leader last.
func (s session) read(ctx context.Context, opts []core.ReadOption, req request) (resp response, err error) {
	if ctx.Err() != nil {
		return response{}, core.CtxErr(ctx)
	}
	switch core.ApplyReadOptions(opts).Level {
	case core.LevelStrong:
		req.Level = "strong"
	case core.LevelEventual:
		req.Level = "eventual"
	default:
		stale := readStaleness
		if d, ok := ctx.Deadline(); ok {
			stale = max(min(stale, time.Until(d)), 0)
		}
		req.Token, req.WaitMS = s.t.Token(), stale.Milliseconds()
	}
	budget := time.Second + time.Duration(req.WaitMS)*time.Millisecond
	req.Trace = obs.TraceID() // one ID across the followers and the leader
	if req.Level != "strong" {
		if resp, done, err := s.t.follow(req, budget); done {
			return resp, err
		}
	}
	err = s.call(ctx, callOnce, budget, &req, &resp)
	return resp, err
}

// poll runs a queue pop through the call loop, at most pollChunk per round
// trip where the loop chunks it.
func (s session) poll(ctx context.Context, k kind, req request) (resp response, err error) {
	err = s.call(ctx, k, pollChunk, &req, &resp)
	return resp, err
}

// Ping verifies the service is reachable.
func (s session) Ping() error {
	_, err := s.write(context.Background(), time.Second, request{Op: "ping"})
	return err
}

// Submit implements core.Session.
func (s session) Submit(ctx context.Context, expID string, workType int, payload string, opts ...core.SubmitOption) (core.SubmitRes, error) {
	var o core.SubmitOptions
	for _, opt := range opts {
		opt(&o)
	}
	resp, err := s.write(ctx, time.Second, request{
		Op: "submit", ExpID: expID, WorkType: workType, Payload: payload,
		Priority: o.Priority, Tags: o.Tags, DedupKey: o.DedupKey,
	})
	if err != nil {
		return core.SubmitRes{}, err
	}
	return core.SubmitRes{ID: resp.TaskID, Token: resp.Token}, nil
}

// SubmitBatch implements core.Session.
func (s session) SubmitBatch(ctx context.Context, expID string, workType int, payloads []string, priorities []int, dedupKeys []string) (core.BatchRes, error) {
	resp, err := s.write(ctx, 10*time.Second, request{
		Op: "submit_batch", ExpID: expID, WorkType: workType,
		Payloads: payloads, Priorities: priorities, DedupKeys: dedupKeys,
	})
	if err != nil {
		return core.BatchRes{}, err
	}
	return core.BatchRes{IDs: resp.TaskIDs, Token: resp.Token}, nil
}

// QueryTasks implements core.Session.
func (s session) QueryTasks(ctx context.Context, workType, n int, pool string) (core.TasksRes, error) {
	resp, err := s.poll(ctx, callPoll, request{Op: "query_tasks", WorkType: workType, N: n, Pool: pool})
	if err != nil {
		return core.TasksRes{}, err
	}
	return core.TasksRes{Tasks: resp.Tasks, Token: resp.Token}, nil
}

// Report implements core.Session.
func (s session) Report(ctx context.Context, taskID int64, workType int, result string) (core.Res, error) {
	resp, err := s.write(ctx, time.Second, request{Op: "report", TaskID: taskID, WorkType: workType, Result: result})
	if err != nil {
		return core.Res{}, err
	}
	return core.Res{Token: resp.Token}, nil
}

// QueryResult implements core.Session.
func (s session) QueryResult(ctx context.Context, taskID int64) (core.ResultRes, error) {
	resp, err := s.poll(ctx, callResult, request{Op: "query_result", TaskID: taskID})
	if err != nil {
		return core.ResultRes{}, err
	}
	return core.ResultRes{Result: resp.ResultText, Token: resp.Token}, nil
}

// PopResults implements core.Session.
func (s session) PopResults(ctx context.Context, ids []int64, max int) (core.ResultsRes, error) {
	resp, err := s.poll(ctx, callPoll, request{Op: "pop_results", TaskIDs: ids, N: max})
	if err != nil {
		return core.ResultsRes{}, err
	}
	return core.ResultsRes{Results: resp.Results, Token: resp.Token}, nil
}

// Statuses implements core.Session. Status polls dominate ME workloads; a
// ClusterClient serves them from follower replicas under the session's
// freshness token.
func (s session) Statuses(ctx context.Context, ids []int64, opts ...core.ReadOption) (map[int64]core.Status, error) {
	resp, err := s.read(ctx, opts, request{Op: "statuses", TaskIDs: ids})
	if err != nil {
		return nil, err
	}
	return orEmpty(resp.StatusMap), nil
}

// Priorities implements core.Session.
func (s session) Priorities(ctx context.Context, ids []int64, opts ...core.ReadOption) (map[int64]int, error) {
	resp, err := s.read(ctx, opts, request{Op: "priorities", TaskIDs: ids})
	if err != nil {
		return nil, err
	}
	return orEmpty(resp.PrioMap), nil
}

// UpdatePriorities implements core.Session.
func (s session) UpdatePriorities(ctx context.Context, ids []int64, priorities []int) (core.CountRes, error) {
	return s.count(ctx, request{Op: "update_priorities", TaskIDs: ids, Priorities: priorities})
}

// CancelTasks implements core.Session.
func (s session) CancelTasks(ctx context.Context, ids []int64) (core.CountRes, error) {
	return s.count(ctx, request{Op: "cancel", TaskIDs: ids})
}

// RequeueRunning implements core.Session.
func (s session) RequeueRunning(ctx context.Context, pool string) (core.CountRes, error) {
	return s.count(ctx, request{Op: "requeue", Pool: pool})
}

// count runs a write whose answer is how many rows it changed.
func (s session) count(ctx context.Context, req request) (core.CountRes, error) {
	resp, err := s.write(ctx, time.Second, req)
	if err != nil {
		return core.CountRes{}, err
	}
	return core.CountRes{Count: resp.Count, Token: resp.Token}, nil
}

// Counts implements core.Session.
func (s session) Counts(ctx context.Context, expID string, opts ...core.ReadOption) (map[core.Status]int, error) {
	resp, err := s.read(ctx, opts, request{Op: "counts", ExpID: expID})
	if err != nil {
		return nil, err
	}
	return orEmpty(resp.CountsMap), nil
}

// Tags implements core.Session.
func (s session) Tags(ctx context.Context, taskID int64, opts ...core.ReadOption) ([]string, error) {
	resp, err := s.read(ctx, opts, request{Op: "tags", TaskID: taskID})
	if err != nil {
		return nil, err
	}
	return resp.TagList, nil
}

// GetTask implements core.Session: the full task row from the local replica
// of whichever node serves the read (under the session freshness bound),
// which is what lets failover clients recover completed results whose
// input-queue entry died with the old leader.
func (s session) GetTask(ctx context.Context, taskID int64, opts ...core.ReadOption) (core.Task, error) {
	resp, err := s.read(ctx, opts, request{Op: "task_get", TaskID: taskID})
	if err != nil {
		return core.Task{}, err
	}
	if len(resp.Tasks) == 0 {
		return core.Task{}, fmt.Errorf("service: task_get returned no task")
	}
	return resp.Tasks[0], nil
}

// orEmpty returns a decoded map, or an empty one for a frame that carried no
// entries: like core.DB's, a map read never answers nil.
func orEmpty[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return map[K]V{}
	}
	return m
}

// ClusterInfo is a node's replication status as reported by the "cluster"
// op. Standalone (non-replicated) servers answer as their own leader, so
// failover clients work against them unchanged.
type ClusterInfo struct {
	Role      string
	NodeID    string
	LeaderSvc string
	Term      uint64
	Applied   uint64
	// PeerSvcs lists the service addresses of every cluster member the
	// answering node knows of (itself included).
	PeerSvcs []string
}

func clusterInfo(resp response) ClusterInfo {
	return ClusterInfo{
		Role: resp.Role, NodeID: resp.NodeID, LeaderSvc: resp.LeaderSvc,
		Term: resp.Term, Applied: resp.Applied, PeerSvcs: resp.PeerSvcs,
	}
}

// Cluster queries the replication status of the node the transport reaches
// (for a ClusterClient, the current leader).
func (s session) Cluster() (ClusterInfo, error) {
	resp, err := s.write(context.Background(), time.Second, request{Op: "cluster"})
	if err != nil {
		return ClusterInfo{}, err
	}
	return clusterInfo(resp), nil
}

// ClusterStats fetches the answering node's full metrics snapshot over the
// wire protocol: the same numbers /metrics exposes, flattened to
// name{labels} -> value (histograms as _count/_sum/_p50/_p95/_p99), for
// callers that can reach the service port but not the ops listener. The
// numbers are that node's own — per-node, not cluster-aggregated.
func (s session) ClusterStats() (map[string]float64, error) {
	resp, err := s.write(context.Background(), 5*time.Second, request{Op: "cluster_stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}
