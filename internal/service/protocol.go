// Package service implements the EMEWS service of paper §IV-C: the
// network-facing mediator between model-exploration algorithms, worker
// pools, and the resource-local EMEWS task database. In the paper the ME
// script on a laptop reaches the service on the Bebop cluster through an
// SSH tunnel; here the service speaks one length-prefixed binary protocol
// over TCP — multiplexed and pipelined — and the Client type implements
// core.Session so algorithms and pools run unchanged against a local
// database or a remote service.
//
// Where the protocol is specified: preamble, framing, field encoding and the
// append-only evolution rule head wire.go; the primitives fields and frames
// are read and written with, and the one rule bounding what a decode of
// untrusted bytes allocates, are internal/codec's; the messages are request
// and response below; the ops, and how each is routed, admitted and scheduled,
// are the opSpecs table (ops.go); pipelining is Server.handleV2 on one side
// and Client on the other; the client's op set is written once, in
// session.go, and so is the one loop that retries a call (session.call: its
// writes, polls and leader-bound reads), over the transport Client and
// ClusterClient each supply, which only chooses the connection.
//
// Tracing: every request carries a trace ID (request.Trace) minted once at
// the originating client and kept verbatim when it retries on another node.
// A follower never relays: it refuses a leader-only op naming the leader
// (response.LeaderSvc) and, at -log-level info, logs "redirecting to leader"
// with the trace= the client's retry carries to the leader, so one grep
// follows a request across nodes (debug adds every failed request). The
// default level is warn: malformed frames and accept failures, each counted
// (serverMetrics) and logged with the peer address and trace.
package service

import (
	"osprey/internal/core"
	"osprey/internal/watch"
)

// request is the wire form of one API call.
type request struct {
	Op string

	// Trace is the request's trace ID: 16 hex digits minted once at the
	// originating client (obs.TraceID) and preserved verbatim when the client
	// retries after a redirect, so structured logs on every node that touched
	// the request share one greppable ID. Optional; servers mint one for
	// requests from older clients so their own log lines still correlate.
	Trace string

	// Token is the caller's minimum-freshness bound for read ops: the
	// answering replica must have applied the WAL through this index before
	// serving, which is what gives a session read-your-writes (and, with
	// tokens on pop responses, read-your-pops) when its reads are routed to
	// followers. 0 imposes no bound.
	Token uint64
	// WaitMS bounds how long the replica may block waiting to catch up to
	// Token before answering "behind" (transient); 0 means answer
	// immediately if behind. Polling ops reuse it as the poll deadline,
	// derived from the caller's context.
	WaitMS int64
	// Level is the read's consistency level: "" (session, token-bounded),
	// "strong" (execute on the leader), or "eventual" (any replica, no
	// bound). A follower redirects strong reads to the leader like writes.
	Level string

	// DedupKey (submit) / DedupKeys (submit_batch, one per payload) make
	// retried submits idempotent: a key that already exists returns the
	// original task id instead of inserting a duplicate.
	DedupKey  string
	DedupKeys []string

	ExpID    string
	WorkType int
	Payload  string
	Priority int
	Tags     []string

	TaskID  int64
	TaskIDs []int64
	N       int
	Pool    string

	Result     string
	Priorities []int
	Payloads   []string

	// Watch ("watch" op, wire v4) selects the subscription shape: "task"
	// (transitions of TaskID), "type" (transitions touching WorkType),
	// "queued" (WorkType's queued transitions only, what a pool wakes on), or
	// "all". Every kind has the same frame layout, so "queued" took no
	// version bump: a server built before the kind refuses it as unknown.
	// The request's Token doubles as the resume position — only
	// transitions after it are delivered. The subscription is keyed by the
	// frame's request ID: notification frames reuse it, and "unwatch" names
	// it in SubID to tear the stream down.
	Watch string
	SubID uint64
}

// response is the wire form of one API reply.
type response struct {
	OK      bool
	Error   string
	Timeout bool
	// Transient marks errors worth retrying against another node (no leader
	// yet, a draining node, a follower's redirect: LeaderSvc then names the
	// leader it knows); failover clients re-resolve on them.
	Transient bool
	// Overloaded marks a request the server shed at admission — refused
	// before any execution (and before any side effect, so even
	// non-idempotent ops are safe to resend verbatim). Clients back off
	// with jitter and retry the SAME node rather than failing over: unlike
	// Transient, the node is healthy, just saturated. Wire v3; absent on
	// the wire from older servers, decoding as false.
	Overloaded bool

	// Token is the commit token of the operation: for writes, the WAL index
	// of the write's own log entry (what the server quorum-waited on); for
	// reads, the answering replica's applied index at serve time. Clients
	// ratchet their session high-water token from it, giving read-your-writes
	// and monotonic reads across replicas.
	Token uint64

	// Tasks, Results, StatusMap and CountsMap are core's own types, which
	// the codec reads and writes directly (appendTask, readTask): an op
	// puts its core answer here as it is, and a client returns it as decoded.
	TaskID     int64
	TaskIDs    []int64
	Tasks      []core.Task
	Results    []core.TaskResult
	StatusMap  map[int64]core.Status
	PrioMap    map[int64]int
	Count      int
	CountsMap  map[core.Status]int
	TagList    []string
	ResultText string

	// "cluster" op: replication status of the answering node. PeerSvcs lists
	// the service addresses of every cluster member the node knows of, which
	// is what lets DialCluster spread read-only traffic across followers.
	Role      string
	NodeID    string
	LeaderSvc string
	Term      uint64
	Applied   uint64
	PeerSvcs  []string

	// Stats is the "cluster_stats" op's payload: the answering node's full
	// metrics registry flattened to name{labels} -> value (histograms as
	// _count/_sum/_p50/_p95/_p99), the same numbers /metrics exposes, for
	// clients that can reach the service port but not the ops listener.
	Stats map[string]float64

	// Done (wire v4) marks the final frame of a watch subscription: the
	// server will send nothing further under this request ID. Set on unwatch
	// acknowledgements, drain terminations, and overflow drops.
	Done bool
	// Events (wire v4) carries one commit's task-state transitions on watch
	// notification frames (and the resume replay, or the resync marker, on
	// the first frame after the subscribe acknowledgement). An event's
	// fifth slot is reserved: v4 carried a queue depth there, and it is
	// always written 0 (see appendResponse).
	Events []watch.Event
}
