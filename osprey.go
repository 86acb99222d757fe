// Package osprey is the public facade of the OSPREY reproduction: an open
// science platform for robust epidemic analysis (Collier et al., 2023,
// arXiv:2304.14244), reimplemented as a self-contained Go library.
//
// The platform coordinates algorithm-driven HPC workflows across federated
// resources. Its components, each in an internal package re-exported here:
//
//   - the EMEWS task database and its submit/query/report/result API
//     (internal/core), backed by an embedded SQL engine (internal/minisql),
//     optionally durable on disk (osprey.Open): a segmented write-ahead log
//     with group-commit fsync, periodic engine checkpoints, and cold-start
//     crash recovery;
//   - an asynchronous futures API over that database (internal/future);
//   - a TCP EMEWS service and client for remote access (internal/service);
//   - a replication subsystem (internal/replica) that runs the service as a
//     leader/follower cluster: committed statements ship through a
//     write-ahead log, followers bootstrap from snapshots and serve reads
//     locally while redirecting writes to the leader, a deterministic
//     priority scheme promotes a follower when the leader dies
//     (majority-gated, preferring the most-up-to-date survivor), an
//     optional write quorum
//     (ReplicaConfig.WriteQuorum) makes acknowledged writes survive
//     immediate leader death, a leader partitioned from the majority
//     demotes itself instead of accepting doomed writes, and DialCluster
//     gives clients transparent failover;
//   - a federated function-as-a-service fabric (internal/funcx);
//   - heterogeneous worker pools with batch/threshold querying
//     (internal/pool) running on simulated batch clusters (internal/sched);
//   - a proxy-object data fabric over wide-area transfer
//     (internal/proxystore, internal/globus);
//   - model-exploration algorithms with local or remote Gaussian-process
//     reprioritization (internal/opt, internal/gpr);
//   - epidemiologic model workloads (internal/epi); and
//   - the experiment harnesses regenerating the paper's figures
//     (internal/experiments).
//
// A minimal local workflow:
//
//	db, _ := osprey.NewDB()
//	defer db.Close()
//	p, _ := osprey.NewPool(db, osprey.PoolConfig{Name: "p", Workers: 4, WorkType: 1}, exec, nil)
//	go p.Run(ctx)
//	f, _ := osprey.Submit(db, "exp", 1, `{"x": [0.5, 1.5]}`)
//	result, _ := f.Result(time.Minute)
package osprey

import (
	"osprey/internal/core"
	"osprey/internal/future"
	"osprey/internal/pool"
	"osprey/internal/replica"
	"osprey/internal/service"
	"osprey/internal/watch"
)

// Core task-database types.
type (
	// DB is the in-process EMEWS task database.
	DB = core.DB
	// Session is the context-aware task interface shared by DB, the remote
	// service client, and the failover-aware cluster client: every operation
	// takes a context, every mutating operation — queue pops included —
	// returns its commit token, reads take per-call consistency levels
	// (Strong / session default / Eventual), and Watch opens a push stream of
	// task-state transitions.
	Session = core.Session
	// Task is one task row.
	Task = core.Task
	// TaskResult pairs a task id with its result payload.
	TaskResult = core.TaskResult
	// Status is a task lifecycle state.
	Status = core.Status
	// SubmitOption configures task submission.
	SubmitOption = core.SubmitOption
	// ReadOption sets a per-read consistency level on Session reads.
	ReadOption = core.ReadOption
	// Res carries a mutating operation's commit token; SubmitRes, BatchRes,
	// TasksRes, ResultRes, ResultsRes and CountRes are its op-specific kin.
	Res = core.Res
	// SubmitRes is the result of Session.Submit.
	SubmitRes = core.SubmitRes
	// BatchRes is the result of Session.SubmitBatch.
	BatchRes = core.BatchRes
	// TasksRes is the result of Session.QueryTasks (tasks + pop token).
	TasksRes = core.TasksRes
	// ResultRes is the result of Session.QueryResult.
	ResultRes = core.ResultRes
	// ResultsRes is the result of Session.PopResults.
	ResultsRes = core.ResultsRes
	// CountRes is the result of the counting mutations.
	CountRes = core.CountRes
)

// Task lifecycle states.
const (
	StatusQueued   = core.StatusQueued
	StatusRunning  = core.StatusRunning
	StatusComplete = core.StatusComplete
	StatusCanceled = core.StatusCanceled
)

// Sentinel errors.
var (
	// ErrTimeout is returned when a polling query expires.
	ErrTimeout = core.ErrTimeout
	// ErrClosed is returned after DB shutdown.
	ErrClosed = core.ErrClosed
)

// NewDB creates an empty EMEWS task database.
func NewDB() (*DB, error) { return core.NewDB() }

// OpenOptions parameterizes a durable database: fsync-before-acknowledge,
// checkpoint cadence, and segment sizing.
type OpenOptions = core.OpenOptions

// Open creates or recovers a durable EMEWS task database rooted at dir:
// committed writes land in a segmented on-disk write-ahead log, the engine
// checkpoints periodically (truncating the log), and a restart recovers the
// latest checkpoint plus the log tail — no clean shutdown required.
func Open(dir string, opt OpenOptions) (*DB, error) { return core.Open(dir, opt) }

// WithPriority sets a task's initial priority.
func WithPriority(p int) SubmitOption { return core.WithPriority(p) }

// WithTags attaches metadata tags to a task.
func WithTags(tags ...string) SubmitOption { return core.WithTags(tags...) }

// WithDedupKey makes a submit idempotent under a client-chosen key: a retry
// carrying the same key returns the original task's id instead of inserting
// a duplicate — the disambiguation for retries after ambiguous failures
// (e.g. a quorum timeout that may have committed locally).
func WithDedupKey(key string) SubmitOption { return core.WithDedupKey(key) }

// Token is a commit token: the WAL index of a mutating operation's own log
// entry. Every Session mutation returns it (pops included), quorum
// acknowledgements wait on exactly it, and reads carry the session's
// high-water token as a minimum-freshness bound so follower replicas serve
// read-your-writes — and read-your-pops — consistent answers.
type Token = core.Token

// Strong pins a Session read to the cluster leader's current state.
var Strong = core.Strong

// Eventual lets any replica answer a Session read with no freshness bound.
var Eventual = core.Eventual

// Watch API: Session.Watch's server-push task-state streams, what pool and
// future block on instead of polling.
type (
	// WatchQuery selects the transitions a subscription receives (all
	// tasks, one task, or one work type) and the resume position (Since:
	// only events with a newer commit token are delivered).
	WatchQuery = watch.Query
	// WatchEvent is one pushed task-state transition — or, when Resync is
	// set, a marker that the transitions before Token are lost to this
	// subscription: it carries no task or status, and the consumer must
	// re-read the state it depends on.
	WatchEvent = watch.Event
	// WatchStream is the consumer half of a subscription: Events yields
	// batches in commit order, Err reports why the stream ended.
	WatchStream = watch.Stream
)

// ErrWatchOverflow terminates subscribers that fall behind the hub rather
// than letting them stall commits; resubscribe with the last seen token.
var ErrWatchOverflow = watch.ErrOverflow

// Futures API.
type (
	// Future is a handle on one asynchronous task (§V-B of the paper).
	Future = future.Future
)

// Submit submits a task and returns its Future.
var Submit = future.Submit

// PopCompleted blocks until one future in the list completes, removing and
// returning it.
var PopCompleted = future.PopCompleted

// AsCompleted yields futures as they complete.
var AsCompleted = future.AsCompleted

// UpdatePriorities batch-updates queued futures' priorities.
var UpdatePriorities = future.UpdatePriorities

// Worker pools.
type (
	// Pool executes tasks of one work type (§IV-D).
	Pool = pool.Pool
	// PoolConfig parameterizes a pool.
	PoolConfig = pool.Config
	// TaskFunc executes one payload.
	TaskFunc = pool.TaskFunc
)

// NewPool creates a worker pool over any Session implementation.
var NewPool = pool.New

// Remote service.
type (
	// Server exposes a DB over TCP (the EMEWS service, §IV-C).
	Server = service.Server
	// Client is a remote Session implementation.
	Client = service.Client
)

// Serve starts an EMEWS service for db on addr.
var Serve = service.Serve

// Dial connects to an EMEWS service.
var Dial = service.Dial

// DialContext dials with retry until the service is reachable.
var DialContext = service.DialContext

// Replicated service.
type (
	// ReplicaNode is one member of a replicated EMEWS service cluster.
	ReplicaNode = replica.Node
	// ReplicaConfig parameterizes a cluster node (identity, promotion
	// priority, join address, failure-detection timings, and the write
	// quorum: WriteQuorum > 0 holds each write acknowledgement until that
	// many followers applied it, so acknowledged writes survive immediate
	// leader death).
	ReplicaConfig = replica.Config
	// ClusterClient is a failover-aware Session implementation that re-resolves
	// the cluster leader on connection loss.
	ClusterClient = service.ClusterClient
)

// ErrUnavailable marks transient cluster conditions — no leader elected yet,
// a demoted leader or a follower refusing writes (the message then names the
// leader), a quorum not reached in time. Failover clients (DialCluster) retry
// it automatically, on the named leader first; direct Dial callers may too.
var ErrUnavailable = service.ErrUnavailable

// NewReplica creates a cluster node: the initial leader when
// ReplicaConfig.Join is empty, otherwise a follower of that leader.
var NewReplica = replica.New

// ServeNode starts the EMEWS service for a cluster node: reads answer from
// the local replica; while the node follows, writes are refused transiently
// with the leader's address, and DialCluster clients retry there.
var ServeNode = service.ServeNode

// DialCluster connects to a replicated EMEWS service given any subset of
// its nodes' service addresses. The returned client implements Session and
// survives leader failover: it re-resolves the leader and retries, recovers
// completed task results from the replicas, load-balances read-only calls
// across follower replicas under a session commit token (read-your-writes),
// and attaches per-call dedup keys so its retries never duplicate submits.
var DialCluster = service.DialCluster
