package main

// This file is the benchmark's contract in code: the workloads and the
// metrics, with unit, direction and regression bound. BENCHMARK.json at the
// repository root states the same thing for the driver; TestSpecMatchesJSON
// keeps the two from drifting apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"standalone-cycle", "one in-memory node behind the loopback service: wire, dispatch, core and minisql exec do all the work, replica and disk none"},
	{"quorum-cycle", "3-node WriteQuorum-1 cluster via DialCluster, zero injected delay: replica ship/ack/quorum wait, the watch gate and auto dedup keys work only here"},
	{"durable-cycle", "one node with disk log and fsync before every ack: log encode, append, group-commit fsync and checkpoints do the work"},
	{"deep-queue", "core.DB called in-process at 20000 queued tasks: writes beside reads on minisql's ordered index at a depth the cycle workloads never reach, no wire, replica or disk"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see. Each is reported,
// and is never 0, on all four workloads, measured with tracing off. A bound is
// the share of the parent's median by which a later change may worsen the
// metric; it is three times the run-to-run spread seen on the sandbox that
// defined the benchmark, or more (README.md, "Steadiness").
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"tasks_per_s", "1/s", higher, 0.25},
	{"submit_batch_p50_us", "us", lower, 0.25},
	{"query_tasks_p50_us", "us", lower, 0.25},
	{"report_p50_us", "us", lower, 0.25},
	{"allocs_per_task", "count", lower, 0.05},
}

// perLayer are the metrics of single layers, from the traced run. A metric a
// workload does not exercise (replica.* off the cluster, minisql.fsync* off
// the disk) reads 0 there.
var perLayer = []metricSpec{
	// service: spans at the client, the server's own histogram, seam counters.
	{"service.rtt_mean_us.submit_batch", "us", lower, 0},
	{"service.rtt_mean_us.query_tasks", "us", lower, 0},
	{"service.rtt_mean_us.report", "us", lower, 0},
	{"service.rtt_mean_us.pop_results", "us", lower, 0},
	{"service.rtt_mean_us.update_priorities", "us", lower, 0},
	{"service.rtt_mean_us.statuses", "us", lower, 0},
	{"service.rtt_p99_us.submit_batch", "us", lower, 0},
	{"service.rtt_p99_us.query_tasks", "us", lower, 0},
	{"service.rtt_p99_us.report", "us", lower, 0},
	{"service.server_mean_us.submit_batch", "us", lower, 0},
	{"service.server_mean_us.query_tasks", "us", lower, 0},
	{"service.server_mean_us.report", "us", lower, 0},
	{"service.server_mean_us.pop_results", "us", lower, 0},
	{"service.wire_self_us.submit_batch", "us", lower, 0},
	{"service.wire_self_us.query_tasks", "us", lower, 0},
	{"service.wire_self_us.report", "us", lower, 0},
	{"service.codec_roundtrip_ns", "ns", lower, 0},
	{"service.frames_per_task", "count", lower, 0},
	{"service.wire_bytes_per_task", "B", lower, 0},
	{"service.errors", "count", lower, 0},
	{"service.overloaded", "count", lower, 0},
	{"service.forwards", "count", lower, 0},
	// core: the database's own op histogram, in-process spans on deep-queue.
	{"core.op_mean_us.submit_batch", "us", lower, 0},
	{"core.op_mean_us.pop_tasks", "us", lower, 0},
	{"core.op_mean_us.report", "us", lower, 0},
	{"core.op_mean_us.pop_results", "us", lower, 0},
	{"core.direct_mean_us.submit_batch", "us", lower, 0},
	{"core.direct_mean_us.query_tasks", "us", lower, 0},
	{"core.direct_mean_us.report", "us", lower, 0},
	{"core.direct_mean_us.update_priorities", "us", lower, 0},
	{"core.direct_mean_us.statuses", "us", lower, 0},
	{"core.queue_depth_out_max", "count", lower, 0},
	// minisql: plan cache, log, checkpoints, recovery.
	{"minisql.plan_cache_hit_ratio", "ratio", higher, 0},
	{"minisql.plan_cache_misses", "count", lower, 0},
	{"minisql.apply_entry_us", "us", lower, 0},
	{"minisql.disklog_append_us", "us", lower, 0},
	{"minisql.disklog_bytes_per_entry", "B", lower, 0},
	{"minisql.fsyncs_per_task", "count", lower, 0},
	{"minisql.entries_per_fsync", "count", higher, 0},
	{"minisql.fsync_mean_us", "us", lower, 0},
	{"minisql.fs_writes_per_task", "count", lower, 0},
	{"minisql.fs_bytes_per_task", "B", lower, 0},
	{"minisql.wal_bytes_per_task", "B", lower, 0},
	{"minisql.checkpoints", "count", lower, 0},
	{"minisql.checkpoint_bytes", "B", lower, 0},
	{"minisql.snapshot_ms", "ms", lower, 0},
	{"minisql.restore_ms", "ms", lower, 0},
	{"minisql.recover_s", "s", lower, 0},
	{"minisql.heap_mb_at_depth", "MB", lower, 0},
	// replica: exported histograms, seam counters on the leader's stream side.
	{"replica.quorum_wait_mean_us", "us", lower, 0},
	{"replica.entries_per_ship_batch", "count", higher, 0},
	{"replica.heartbeat_rtt_mean_us", "us", lower, 0},
	{"replica.ship_bytes_per_task", "B", lower, 0},
	{"replica.ship_writes_per_task", "count", lower, 0},
	{"replica.follower_lag_max", "count", lower, 0},
	{"replica.catchup_ms", "ms", lower, 0},
	// watch: hub cost, delivery counters, wake latency of the probe.
	{"watch.hub_commit_ns", "ns", lower, 0},
	{"watch.events_delivered", "count", lower, 0},
	{"watch.events_dropped", "count", lower, 0},
	{"watch.resume_replays", "count", lower, 0},
	{"watch.probe_wake_p90_us", "us", lower, 0},
	// pool and future: work done and wasted at their boundary.
	{"pool.queries_per_task", "count", lower, 0},
	{"pool.empty_query_ratio", "ratio", lower, 0},
	{"pool.tasks_failed", "count", lower, 0},
	{"future.pop_results_calls_per_task", "count", lower, 0},
	{"future.ids_per_result", "count", lower, 0},
	// Tails and the harness's own behaviour: reported, never bounded.
	{"probe.turnaround_p50_us", "us", lower, 0},
	{"probe.turnaround_p99_us", "us", lower, 0},
	{"probe.lateness_p90_us", "us", lower, 0},
	{"trace.tasks_per_s", "1/s", higher, 0},
	{"trace.spans", "count", lower, 0},
}
