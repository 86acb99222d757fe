package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"osprey/internal/core"
	"osprey/internal/service"
)

// runConfig is one invocation: a workload, a seed, how long to measure, and
// whether to trace.
type runConfig struct {
	workload string
	seed     int64
	length   time.Duration // of all epochs' windows together
	trace    bool
	quick    bool   // 1/50 size, for the test suite
	outDir   string // trace files and durable data directories
}

// sizes are the fixed amounts of set-up work per workload and epoch.
type sizes struct {
	warmRounds int // warm-up rounds per ME loop (cycle) or whole rounds (deep-queue)
	warmProbes int
	depth      int // deep-queue only
}

func sizesOf(workload string, quick bool) sizes {
	var s sizes
	switch workload {
	case "standalone-cycle":
		s = sizes{warmRounds: 20, warmProbes: 10}
	case "quorum-cycle":
		s = sizes{warmRounds: 5, warmProbes: 5}
	case "durable-cycle":
		s = sizes{warmRounds: 5, warmProbes: 5}
	case "deep-queue":
		s = sizes{warmRounds: 1, depth: deepDepth}
	}
	if quick {
		s.warmRounds, s.warmProbes, s.depth = 1, 1, s.depth/50
	}
	return s
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// attrRow is one op's line of the attribution table, all in µs; the parts
// sum to rtt by construction.
type attrRow struct {
	op                                                                 string
	calls                                                              int
	rtt, wireSelf, dispatch, coreExec, quorumWait, fsyncWait, unattrib float64
}

// runResult is everything one run reports. The exported fields are what
// -out appends to a result set; the driver's last line carries correct,
// attempted, failed and metrics only.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values      map[string]float64 // every metric the run computed, of either list
	tasks       int64
	measuredFor time.Duration
	perEpoch    map[string][]float64 // the epochs' values behind each end-to-end median
	samples     map[string]int       // sample count behind each percentile
	notes       []string
	firstErr    error
	attribution []attrRow
	spans       []spanStat
	tracePath   string
}

func (r *runResult) set(name string, v float64) { r.values[name] = v }

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload once. The error return is for a harness that
// could not run at all; a run whose output checks fail returns a result with
// Correct false.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{
		Workload: cfg.workload, Seed: cfg.seed,
		Metrics: map[string]metricValue{}, values: map[string]float64{},
		samples: map[string]int{}, perEpoch: map[string][]float64{},
	}
	if cfg.trace {
		res.Trace = 1
	}
	rec := newRecorder(cfg.trace)
	var err error
	if cfg.workload == "deep-queue" {
		err = runDeep(cfg, rec, res)
	} else {
		err = runCycle(cfg, rec, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = rec.attempted.Load()
	res.Failed = rec.failed.Load()
	res.firstErr = rec.firstErr
	// The run reports the metrics of its mode's list; one the workload does
	// not exercise (a layer it has not got) reads 0.
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, m := range specs {
		v := res.values[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		if !cfg.trace && !cfg.quick && v == 0 {
			res.Failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("end-to-end metric %s has no samples", m.Name)
			}
		}
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		res.spans = spanStats(rec.spans)
		res.tracePath, err = writeTrace(cfg.outDir, cfg.workload, cfg.seed, rec)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return res, nil
}

// counters is what the process and the seams have counted so far; totals
// sums their increase over the windows of a run's epochs.
type counters struct {
	mallocs uint64
	wire    ioSnapshot // client side of the service connections
	srvWire ioSnapshot // server side
	ship    ioSnapshot // leader side of the replication streams
	fs      fsSnapshot
	logLast uint64 // durable store's newest log index
	gather  gathered
}

func takeCounters(top *topology, trace bool) counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	if top.wire != nil {
		c.wire, c.srvWire = top.wire.snapshot(), top.srvWire.snapshot()
	}
	if top.ship != nil {
		c.ship = top.ship.snapshot()
	}
	if top.fs != nil {
		c.fs = top.fs.snapshot()
		c.logLast = top.dbs[0].Store().LastIndex()
	}
	if trace {
		c.gather = gatherAll(top.registries())
	}
	return c
}

type totals struct {
	tasks      int64 // completed from a window's start until its loops drained
	mallocs    uint64
	wire       ioSnapshot
	srvWire    ioSnapshot
	ship       ioSnapshot
	fs         fsSnapshot
	logEntries uint64
	gather     gathered

	setups   []float64 // s, per epoch
	rates    []float64 // tasks/s, per epoch
	measured time.Duration
	heapBase float64   // live heap before the first boot: the harness's own
	heapMB   []float64 // live heap after each set-up, less heapBase
	recover  []float64 // s, durable-cycle
	catchup  []float64 // ms, quorum-cycle
	lateness []float64 // µs, every probe of the run
	wakes    []float64 // µs, traced runs: probe's report acknowledged -> Result returned
	lagMax   uint64
	depthMax int

	poolFailed int // task executions the pools' TaskFunc failed

	cluster, durable bool // what the topology has: replicas, a disk log
}

func (t *totals) add(before, after counters) {
	t.mallocs += after.mallocs - before.mallocs
	t.wire = t.wire.add(after.wire.sub(before.wire))
	t.srvWire = t.srvWire.add(after.srvWire.sub(before.srvWire))
	t.ship = t.ship.add(after.ship.sub(before.ship))
	t.fs = t.fs.add(after.fs.sub(before.fs))
	t.logEntries += after.logLast - before.logLast
	if after.gather != nil {
		if t.gather == nil {
			t.gather = gathered{}
		}
		t.gather.addDelta(before.gather, after.gather)
	}
}

func (t *totals) perTask(v float64) float64 {
	if t.tasks == 0 {
		return 0
	}
	return v / float64(t.tasks)
}

// sampler watches, during a traced window, the two levels only sampling can
// see from outside: how far the slowest follower trails the leader, and how
// deep the out-queue gets.
type sampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	lagMax   uint64
	depthMax int
}

func startSampler(top *topology) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			s.depthMax = max(s.depthMax, top.dbs[0].Engine().TableRows("eq_out_q"))
			if len(top.nodes) > 0 {
				lead := top.nodes[0].Applied()
				for _, n := range top.nodes[1:] {
					if a := n.Applied(); lead > a {
						s.lagMax = max(s.lagMax, lead-a)
					}
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and folds what it saw into t.
func (s *sampler) finish(t *totals) {
	close(s.stop)
	s.wg.Wait()
	t.lagMax, t.depthMax = max(t.lagMax, s.lagMax), max(t.depthMax, s.depthMax)
}

func bootCycle(workload, dir string) (*topology, error) {
	switch workload {
	case "standalone-cycle":
		return bootStandalone()
	case "quorum-cycle":
		return bootQuorum()
	case "durable-cycle":
		return bootDurable(dir)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// runCycle runs one of the three *-cycle workloads: per epoch it sets up,
// measures and checks; on a traced run it probes the layers of the last
// epoch's nodes before they close.
func runCycle(cfg runConfig, rec *recorder, res *runResult) error {
	sz := sizesOf(cfg.workload, cfg.quick)
	in := newCycleInputs(cfg.seed)
	var turnaround epochSamples
	tot := totals{heapBase: heapMB()}
	dataDir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(dataDir)

	for epoch := 0; epoch < epochs; epoch++ {
		os.RemoveAll(dataDir)
		t0 := time.Now()
		top, err := bootCycle(cfg.workload, dataDir)
		if err != nil {
			return fmt.Errorf("boot %s: %w", cfg.workload, err)
		}
		env, err := newCycleEnv(top, rec, in, &turnaround)
		if err != nil {
			top.close()
			return fmt.Errorf("attach %s: %w", cfg.workload, err)
		}
		env.warmUp(sz.warmRounds, sz.warmProbes)
		if len(top.nodes) > 0 {
			if _, err := top.waitFollowers(10 * time.Second); err != nil {
				env.stop()
				top.close()
				return err
			}
		}
		tot.setups = append(tot.setups, time.Since(t0).Seconds())
		tot.cluster, tot.durable = len(top.nodes) > 0, top.fs != nil

		tot.heapMB = append(tot.heapMB, heapMB()-tot.heapBase)
		before := takeCounters(top, cfg.trace)
		spansFrom := len(rec.spans)
		var smp *sampler
		if cfg.trace {
			smp = startSampler(top)
		}
		env.run(epoch, cfg.length/epochs)
		if smp != nil {
			smp.finish(&tot)
		}
		if len(top.nodes) > 0 {
			catchup, err := top.waitFollowers(30 * time.Second)
			if err != nil {
				rec.fail(err)
			}
			tot.catchup = append(tot.catchup, float64(catchup)/1e6)
		}
		tot.add(before, takeCounters(top, cfg.trace))
		env.stop()

		tot.tasks += env.win.total.Load()
		tot.measured += env.win.length
		tot.rates = append(tot.rates, float64(env.win.inside.Load())/env.win.length.Seconds())
		tot.lateness = append(tot.lateness, env.lateness...)
		for _, p := range env.pools {
			tot.poolFailed += p.Failed()
		}
		for _, s := range rec.spans[spansFrom:] {
			if done, ok := env.probeDone[s.Trace]; ok && s.Name == opNames[opReport] {
				tot.wakes = append(tot.wakes, float64(done-s.End)/1e3)
			}
		}

		checkCycle(env, top, rec)
		if cfg.trace && epoch == epochs-1 {
			layerProbes(res, top, cfg.outDir, int(env.win.total.Load()))
		}
		top.close()

		// The durable node must come back with every acknowledged task.
		if tot.durable {
			t0 := time.Now()
			db, err := core.Open(dataDir, durableOptions(newCountingFS()))
			if err != nil {
				rec.fail(fmt.Errorf("reopening %s: %w", dataDir, err))
				continue
			}
			tot.recover = append(tot.recover, time.Since(t0).Seconds())
			counts, err := db.Counts(context.Background(), "")
			if err == nil {
				err = checkCounts("after reopening the data directory", counts, env.submitted.Load())
			}
			if err != nil {
				rec.fail(err)
			}
			db.Close()
		}
	}

	res.note("%d epochs, each: boot, warm-up of %d tasks and %d probes (set-up), then a %v window",
		epochs, sz.warmRounds*meLoops*batchSize, sz.warmProbes, cfg.length/epochs)
	if cfg.workload == "quorum-cycle" {
		res.note("loopback cluster, zero injected network delay: latency is processor time only")
	}
	if cfg.workload == "durable-cycle" {
		res.note("fsync latency is this sandbox's filesystem, not a device's")
	}
	late := sortedCopy(tot.lateness)
	res.note("probe schedule: %d probes, one due every %v; generator lateness p50 %.0f us, p90 %.0f us, max %.0f us",
		len(late), probeEvery, percentile(late, 50), percentile(late, 90), percentile(late, 100))

	endToEndMetrics(res, rec, &tot, &turnaround)
	if cfg.trace {
		layerMetricsCycle(res, rec, &tot, &turnaround)
	}
	return nil
}

// endToEndMetrics fills the metrics every workload reports, from the
// recorder's samples and the run's totals.
func endToEndMetrics(res *runResult, rec *recorder, tot *totals, turnaround *epochSamples) {
	res.tasks, res.measuredFor = tot.tasks, tot.measured
	res.set("setup_s", median(tot.setups))
	res.set("tasks_per_s", median(tot.rates))
	for _, m := range []struct {
		name string
		o    op
	}{
		{"submit_batch_p50_us", opSubmitBatch}, {"query_tasks_p50_us", opQueryTasks}, {"report_p50_us", opReport},
	} {
		res.set(m.name, rec.lat[m.o].p50())
		res.samples[m.name] = rec.lat[m.o].n()
		res.perEpoch[m.name] = rec.lat[m.o].perEpoch()
	}
	res.perEpoch["setup_s"], res.perEpoch["tasks_per_s"] = tot.setups, tot.rates
	res.set("probe.turnaround_p50_us", turnaround.p50())
	res.samples["probe.turnaround_p50_us"] = turnaround.n()
	res.set("allocs_per_task", tot.perTask(float64(tot.mallocs)))
}

// checkCycle is the output check of a cycle epoch: the ME side collected
// every task it submitted (each result was checked as it was popped), the
// database agrees, the pools executed every task and failed none, and on the
// cluster every follower holds the leader's state.
func checkCycle(env *cycleEnv, top *topology, rec *recorder) {
	ctx := context.Background()
	tasks := env.submitted.Load()
	if got := env.completed.Load(); got != tasks {
		rec.fail(fmt.Errorf("collected %d results for %d submitted tasks", got, tasks))
	}
	counts, err := top.me.Counts(ctx, "", core.Strong())
	if err == nil {
		err = checkCounts("final Counts", counts, tasks)
	}
	if err != nil {
		rec.fail(err)
	}
	executed, failed := 0, 0
	for _, p := range env.pools {
		executed += p.Executed()
		failed += p.Failed()
	}
	if int64(executed) != tasks || failed != 0 {
		rec.fail(fmt.Errorf("pools executed %d and failed %d of %d tasks", executed, failed, tasks))
	}
	if len(top.nodes) == 0 {
		return
	}
	for i, srv := range top.servers[1:] {
		c, err := service.Dial(srv.Addr())
		if err != nil {
			rec.fail(fmt.Errorf("dialing follower %d: %w", i+1, err))
			continue
		}
		counts, err := c.Counts(ctx, "", core.Eventual())
		c.Close()
		if err == nil {
			err = checkCounts(fmt.Sprintf("Eventual Counts from follower %d", i+1), counts, tasks)
		}
		if err != nil {
			rec.fail(err)
		}
	}
}

// layerMetricsCycle fills the per-layer metrics that come from spans, from
// what the nodes' own counters gained inside the windows, and from the seam
// counters.
func layerMetricsCycle(res *runResult, rec *recorder, tot *totals, turnaround *epochSamples) {
	d := tot.gather
	set := res.set
	cluster, durable := tot.cluster, tot.durable

	// service and core, per op; the attribution table is built alongside.
	quorumMean := d.histMeanUS("osprey_replica_quorum_wait_seconds", "")
	fsyncMean := d.histMeanUS("osprey_wal_fsync_seconds", "")
	for _, o := range []struct {
		o      op
		coreOp string // label of osprey_db_op_seconds, "" if core does not time the op
		quorum bool   // the reply waits for the write's quorum
	}{
		{opSubmitBatch, "submit_batch", true},
		{opQueryTasks, "pop_tasks", false},
		{opReport, "report", true},
		{opPopResults, "pop_results", false},
		{opUpdatePriorities, "", true},
		{opStatuses, "", false},
	} {
		name := opNames[o.o]
		calls, rtt := rec.allCalls(o.o)
		set("service.rtt_mean_us."+name, rtt)
		s := rec.lat[o.o].sorted()
		set("service.rtt_p99_us."+name, percentile(s, 99))
		res.samples["service.rtt_p99_us."+name] = len(s)
		reqs, srvSum := d.hist("osprey_service_request_seconds", opLabel(name))
		server := 0.0
		if reqs > 0 {
			server = srvSum / reqs * 1e6
		}
		set("service.server_mean_us."+name, server)
		set("service.wire_self_us."+name, rtt-server)
		if o.coreOp == "" {
			continue
		}
		set("core.op_mean_us."+o.coreOp, d.histMeanUS("osprey_db_op_seconds", opLabel(o.coreOp)))

		// One request may run the core op more than once (a long poll
		// retries its pop), so core time is taken per request.
		_, coreSum := d.hist("osprey_db_op_seconds", opLabel(o.coreOp))
		coreTotal := 0.0
		if reqs > 0 {
			coreTotal = coreSum / reqs * 1e6
		}
		row := attrRow{op: name, calls: calls, rtt: rtt, wireSelf: rtt - server}
		if o.quorum && cluster {
			row.quorumWait = quorumMean
		}
		if durable {
			// Every write, pops included, waits for its log entry's fsync
			// inside the core op; from outside only the mean fsync is known.
			row.fsyncWait = min(fsyncMean, coreTotal)
		}
		row.coreExec = coreTotal - row.fsyncWait
		row.dispatch = max(0, server-coreTotal-row.quorumWait)
		row.unattrib = row.rtt - row.wireSelf - row.dispatch - row.coreExec - row.quorumWait - row.fsyncWait
		res.attribution = append(res.attribution, row)
	}
	set("service.frames_per_task", tot.perTask(float64(tot.wire.writes+tot.srvWire.writes)))
	set("service.wire_bytes_per_task", tot.perTask(float64(tot.wire.readBytes+tot.wire.writeBytes)))
	errs := 0.0
	for _, name := range opNames {
		errs += d["osprey_service_errors_total"+opLabel(name)]
	}
	set("service.errors", errs)
	set("service.overloaded", d["osprey_service_shed_total"])
	set("service.forwards", d["osprey_service_forwards_total"])
	set("core.queue_depth_out_max", float64(tot.depthMax))

	// minisql: plan cache, and on the durable node the device boundary.
	planCache(res, d)
	set("minisql.heap_mb_at_depth", median(tot.heapMB))
	if durable {
		fsyncs := d["osprey_wal_fsync_total"]
		set("minisql.fsyncs_per_task", tot.perTask(fsyncs))
		if fsyncs > 0 {
			set("minisql.entries_per_fsync", float64(tot.logEntries)/fsyncs)
		}
		set("minisql.fsync_mean_us", fsyncMean)
		set("minisql.fs_writes_per_task", tot.perTask(float64(tot.fs.writes)))
		set("minisql.fs_bytes_per_task", tot.perTask(float64(tot.fs.walBytes+tot.fs.otherBytes)))
		set("minisql.wal_bytes_per_task", tot.perTask(float64(tot.fs.walBytes)))
		set("minisql.checkpoints", float64(tot.fs.checkpoints))
		set("minisql.checkpoint_bytes", float64(tot.fs.otherBytes))
		set("minisql.recover_s", median(tot.recover))
	}

	if cluster {
		set("replica.quorum_wait_mean_us", quorumMean)
		if n, sum := d.hist("osprey_replica_batch_entries", ""); n > 0 {
			set("replica.entries_per_ship_batch", sum/n)
		}
		set("replica.heartbeat_rtt_mean_us", d.histMeanUS("osprey_replica_heartbeat_rtt_seconds", ""))
		set("replica.ship_bytes_per_task", tot.perTask(float64(tot.ship.writeBytes)))
		set("replica.ship_writes_per_task", tot.perTask(float64(tot.ship.writes)))
		set("replica.follower_lag_max", float64(tot.lagMax))
		set("replica.catchup_ms", median(tot.catchup))
	}

	set("watch.events_delivered", d["osprey_watch_events_delivered_total"])
	set("watch.events_dropped", d["osprey_watch_events_dropped_total"])
	set("watch.resume_replays", d["osprey_watch_resume_replays_total"])
	wakes := sortedCopy(tot.wakes)
	set("watch.probe_wake_p90_us", percentile(wakes, 90))
	res.samples["watch.probe_wake_p90_us"] = len(wakes)

	set("pool.queries_per_task", tot.perTask(float64(rec.queries.Load())))
	if q := rec.queries.Load(); q > 0 {
		set("pool.empty_query_ratio", float64(rec.emptyQueries.Load())/float64(q))
	}
	set("pool.tasks_failed", float64(tot.poolFailed))
	set("future.pop_results_calls_per_task", tot.perTask(float64(rec.popCalls.Load())))
	if r := rec.popResults.Load(); r > 0 {
		set("future.ids_per_result", float64(rec.popIDs.Load())/float64(r))
	}
	set("probe.lateness_p90_us", percentile(sortedCopy(tot.lateness), 90))
	harnessMetrics(res, rec, turnaround)
}

// planCache fills the plan-cache metrics from the engines' own counters.
func planCache(res *runResult, d gathered) {
	hits, misses := d["osprey_minisql_plan_cache_hits_total"], d["osprey_minisql_plan_cache_misses_total"]
	if hits+misses > 0 {
		res.set("minisql.plan_cache_hit_ratio", hits/(hits+misses))
	}
	res.set("minisql.plan_cache_misses", misses)
}

// harnessMetrics fills the tail and the harness's own numbers of a traced
// run.
func harnessMetrics(res *runResult, rec *recorder, turnaround *epochSamples) {
	turn := turnaround.sorted()
	res.set("probe.turnaround_p99_us", percentile(turn, 99))
	res.samples["probe.turnaround_p99_us"] = len(turn)
	res.set("trace.tasks_per_s", res.values["tasks_per_s"])
	res.set("trace.spans", float64(len(rec.spans)))
}

// layerProbes runs the after-the-run probes on the last epoch's nodes.
func layerProbes(res *runResult, top *topology, scratch string, tasks int) {
	set := res.set
	if ns, err := codecRoundTripNS(); err == nil {
		set("service.codec_roundtrip_ns", ns)
	} else {
		res.note("codec probe failed: %v", err)
	}
	set("watch.hub_commit_ns", hubCommitNS(min(max(tasks, batchSize), 50_000)))
	if snap, restore, err := snapshotRestoreMS(top.dbs[0]); err == nil {
		set("minisql.snapshot_ms", snap)
		set("minisql.restore_ms", restore)
	} else {
		res.note("snapshot probe failed: %v", err)
	}
	if store := top.dbs[0].Store(); store != nil {
		apply, appendUS, bytes, err := logProbe(store, scratch)
		if err != nil {
			res.note("log probe failed: %v", err)
		}
		set("minisql.apply_entry_us", apply)
		set("minisql.disklog_append_us", appendUS)
		set("minisql.disklog_bytes_per_entry", bytes)
	}
}

// runDeep runs the deep-queue workload: per epoch it boots a bare core.DB,
// preloads it to the working depth (set-up), steps through the window and
// checks.
func runDeep(cfg runConfig, rec *recorder, res *runResult) error {
	sz := sizesOf(cfg.workload, cfg.quick)
	in := newDeepInputs(cfg.seed, sz.depth)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	var turnround epochSamples
	tot := totals{heapBase: heapMB()}

	for epoch := 0; epoch < epochs; epoch++ {
		t0 := time.Now()
		top, err := bootInProcess()
		if err != nil {
			return fmt.Errorf("boot %s: %w", cfg.workload, err)
		}
		env := newDeepEnv(ctx, top, rec, in, &turnround)
		if err := env.preload(); err != nil {
			top.close()
			return fmt.Errorf("preload: %w", err)
		}
		for i := 0; i < sz.warmRounds; i++ {
			env.step()
		}
		tot.setups = append(tot.setups, time.Since(t0).Seconds())

		tot.heapMB = append(tot.heapMB, heapMB()-tot.heapBase)
		before := takeCounters(top, cfg.trace)
		elapsed := env.run(epoch, cfg.length/epochs)
		tot.add(before, takeCounters(top, cfg.trace))
		tot.tasks += env.win.total.Load()
		tot.measured += elapsed
		// A round completes its tasks in one burst, so the epoch's rate is
		// taken over the whole rounds it ran, not over the clock window.
		tot.rates = append(tot.rates, float64(env.win.total.Load())/elapsed.Seconds())

		// Output check: every collected result was checked as it was popped;
		// the database must hold exactly those as complete and the working
		// depth as queued.
		counts, err := top.me.Counts(ctx, "")
		if err != nil {
			rec.fail(err)
		} else if int64(counts[core.StatusComplete]) != env.completed || counts[core.StatusQueued] != sz.depth ||
			len(env.queued) != sz.depth || counts[core.StatusRunning] != 0 || counts[core.StatusCanceled] != 0 {
			rec.fail(fmt.Errorf("final Counts %v, want %d complete and %d queued (harness holds %d)",
				counts, env.completed, sz.depth, len(env.queued)))
		}
		if cfg.trace && epoch == epochs-1 {
			tot.depthMax = top.dbs[0].Engine().TableRows("eq_out_q")
			layerProbes(res, top, cfg.outDir, int(env.win.total.Load()))
		}
		top.close()
	}
	res.note("%d epochs, each: boot, preload to %d queued tasks and %d warm-up round (set-up), then a %v window",
		epochs, sz.depth, sz.warmRounds, cfg.length/epochs)

	endToEndMetrics(res, rec, &tot, &turnround)
	if cfg.trace {
		set := res.set
		for _, o := range []op{opSubmitBatch, opQueryTasks, opReport, opUpdatePriorities, opStatuses} {
			set("core.direct_mean_us."+opNames[o], mean(rec.lat[o].sorted()))
		}
		for _, o := range []string{"submit_batch", "pop_tasks", "report", "pop_results"} {
			set("core.op_mean_us."+o, tot.gather.histMeanUS("osprey_db_op_seconds", opLabel(o)))
		}
		planCache(res, tot.gather)
		set("minisql.heap_mb_at_depth", median(tot.heapMB))
		set("core.queue_depth_out_max", float64(tot.depthMax))
		harnessMetrics(res, rec, &turnround)
	}
	return nil
}
