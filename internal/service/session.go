package service

import (
	"context"
	"fmt"
	"time"

	"osprey/internal/core"
)

// transport is how a request travels to the service; it is everything that
// differs between a Client (one connection) and a ClusterClient (a leader
// connection re-resolved through failover, reads rotated across followers).
// Every op is one of three kinds of call:
//
//   - write: a mutation (or a control op) answered within budget. A finished
//     context executes nothing.
//   - poll: a queue pop that may park server-side until ctx's deadline, shipped
//     as the request's WaitMS; an expired deadline still earns one attempt, a
//     canceled context executes nothing.
//   - read: a read at the consistency level opts select; the transport stamps
//     the request's Token, WaitMS and Level.
type transport interface {
	write(ctx context.Context, budget time.Duration, req request) (response, error)
	poll(ctx context.Context, req request) (response, error)
	read(ctx context.Context, opts []core.ReadOption, req request) (response, error)
}

// session is the remote half of core.Session, written once: each method
// builds its op's request, sends it through the transport and converts the
// response. Client and ClusterClient embed it, so an op added here (or a
// field stamped on every request) reaches both.
type session struct{ t transport }

// Ping verifies the service is reachable.
func (s session) Ping() error {
	_, err := s.t.write(context.Background(), time.Second, request{Op: "ping"})
	return err
}

// Submit implements core.Session.
func (s session) Submit(ctx context.Context, expID string, workType int, payload string, opts ...core.SubmitOption) (core.SubmitRes, error) {
	var o core.SubmitOptions
	for _, opt := range opts {
		opt(&o)
	}
	resp, err := s.t.write(ctx, time.Second, request{
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
	resp, err := s.t.write(ctx, 10*time.Second, request{
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
	resp, err := s.t.poll(ctx, request{Op: "query_tasks", WorkType: workType, N: n, Pool: pool})
	if err != nil {
		return core.TasksRes{}, err
	}
	tasks := make([]core.Task, len(resp.Tasks))
	for i, t := range resp.Tasks {
		tasks[i] = fromWireTask(t)
	}
	return core.TasksRes{Tasks: tasks, Token: resp.Token}, nil
}

// Report implements core.Session.
func (s session) Report(ctx context.Context, taskID int64, workType int, result string) (core.Res, error) {
	resp, err := s.t.write(ctx, time.Second, request{Op: "report", TaskID: taskID, WorkType: workType, Result: result})
	if err != nil {
		return core.Res{}, err
	}
	return core.Res{Token: resp.Token}, nil
}

// QueryResult implements core.Session.
func (s session) QueryResult(ctx context.Context, taskID int64) (core.ResultRes, error) {
	resp, err := s.t.poll(ctx, request{Op: "query_result", TaskID: taskID})
	if err != nil {
		return core.ResultRes{}, err
	}
	return core.ResultRes{Result: resp.ResultText, Token: resp.Token}, nil
}

// PopResults implements core.Session.
func (s session) PopResults(ctx context.Context, ids []int64, max int) (core.ResultsRes, error) {
	resp, err := s.t.poll(ctx, request{Op: "pop_results", TaskIDs: ids, N: max})
	if err != nil {
		return core.ResultsRes{}, err
	}
	out := make([]core.TaskResult, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = core.TaskResult{ID: r.ID, Result: r.Result}
	}
	return core.ResultsRes{Results: out, Token: resp.Token}, nil
}

// Statuses implements core.Session. Status polls dominate ME workloads; a
// ClusterClient serves them from follower replicas under the session's
// freshness token.
func (s session) Statuses(ctx context.Context, ids []int64, opts ...core.ReadOption) (map[int64]core.Status, error) {
	resp, err := s.t.read(ctx, opts, request{Op: "statuses", TaskIDs: ids})
	if err != nil {
		return nil, err
	}
	out := make(map[int64]core.Status, len(resp.StatusMap))
	for id, st := range resp.StatusMap {
		out[id] = core.Status(st)
	}
	return out, nil
}

// Priorities implements core.Session.
func (s session) Priorities(ctx context.Context, ids []int64, opts ...core.ReadOption) (map[int64]int, error) {
	resp, err := s.t.read(ctx, opts, request{Op: "priorities", TaskIDs: ids})
	if err != nil {
		return nil, err
	}
	if resp.PrioMap == nil {
		return map[int64]int{}, nil
	}
	return resp.PrioMap, nil
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
	resp, err := s.t.write(ctx, time.Second, req)
	if err != nil {
		return core.CountRes{}, err
	}
	return core.CountRes{Count: resp.Count, Token: resp.Token}, nil
}

// Counts implements core.Session.
func (s session) Counts(ctx context.Context, expID string, opts ...core.ReadOption) (map[core.Status]int, error) {
	resp, err := s.t.read(ctx, opts, request{Op: "counts", ExpID: expID})
	if err != nil {
		return nil, err
	}
	out := make(map[core.Status]int, len(resp.CountsMap))
	for st, n := range resp.CountsMap {
		out[core.Status(st)] = n
	}
	return out, nil
}

// Tags implements core.Session.
func (s session) Tags(ctx context.Context, taskID int64, opts ...core.ReadOption) ([]string, error) {
	resp, err := s.t.read(ctx, opts, request{Op: "tags", TaskID: taskID})
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
	resp, err := s.t.read(ctx, opts, request{Op: "task_get", TaskID: taskID})
	if err != nil {
		return core.Task{}, err
	}
	if len(resp.Tasks) == 0 {
		return core.Task{}, fmt.Errorf("service: task_get returned no task")
	}
	return fromWireTask(resp.Tasks[0]), nil
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
	resp, err := s.t.write(context.Background(), time.Second, request{Op: "cluster"})
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
	resp, err := s.t.write(context.Background(), 5*time.Second, request{Op: "cluster_stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}
