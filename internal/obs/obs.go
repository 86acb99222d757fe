// Package obs is the production observability substrate: a dependency-free,
// low-overhead metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms), per-request trace IDs, and an ops HTTP server
// (Prometheus /metrics, /healthz, /readyz, /statusz, /debug/pprof).
//
// Every layer of the stack — the service server, the replication node, the
// task database, the SQL engine, and the worker pools — reports through a
// Registry. Hot paths touch only atomics (a counter increment is one
// atomic add, a histogram observation two), so instrumentation stays well
// under the benchmark gate's noise floor; everything lock-shaped happens at
// gather (scrape) time.
//
// One registry per node: core.DB creates it and every layer above registers
// into the same one (db.Metrics() == node.Metrics() == server.Metrics()), so a
// single scrape covers the engine, the queues, replication, the service and
// the pools. BenchmarkInstrumentedSubmit, in the gated
// set, holds the hot-path cost to one pointer dereference and 2–3 atomics per
// event. Counters end in _total; histograms expose _bucket/_sum/_count. Each
// layer lists its metrics where it registers them: service.serverMetrics
// (service/ops.go), replica.nodeMetrics (replica/obs.go), core.newDBMetrics
// and dbMetrics.bindStore (core/obs.go: database, engine, compiled
// statements — the plan_cache metrics count executions that reused a
// prepared or cached statement against those that parsed — and durability),
// watch.NewHub and pool.New (with Config.Metrics set).
//
// Endpoints (ServeOps; `osprey-service -ops-addr HOST:PORT`, or
// service.Server.ServeOps embedded):
//
//   - /metrics — Prometheus text format 0.0.4; point any scrape_config at it.
//   - /healthz — process liveness: 200 while the service listener is up.
//   - /readyz — 200 only when the node would serve token-bounded reads: a
//     leader always, a follower only while it has had leader contact within
//     4× its election timeout and is caught up or still making apply progress
//     (replica.Node.Ready). A stalled or partitioned follower goes 503 before
//     clients start seeing ErrStale — the load-balancer signal — and so does a
//     draining server.
//   - /statusz — a human-readable node and cluster snapshot: role, term,
//     applied and committed index, peers, each follower's acked index;
//     durable nodes add WAL segment, byte and position counts, the checkpoint
//     index and age, and the last checkpoint's duration and engine-lock hold.
//   - /debug/pprof — the standard Go profiling handlers.
//
// Without an ops port, `osprey-service -stats HOST:PORT` (or ClusterStats on
// either service client) fetches the same numbers over the service protocol —
// the cluster_stats op — flattened by Flatten to name{labels} → value, with
// histograms as _count/_sum/_p50/_p95/_p99.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric for exposition.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adjusts the gauge by delta (CAS loop; contention on a gauge is rare).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// metricID renders the unique identity of one metric: its name plus the
// sorted, rendered label pairs. The rendered label string is reused verbatim
// in the Prometheus exposition.
func metricID(name string, labels []string) (id, labelStr string) {
	if len(labels) == 0 {
		return name, ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: labels must be key/value pairs, got %d strings", name, len(labels)))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p.k, p.v)
	}
	sb.WriteByte('}')
	labelStr = sb.String()
	return name + labelStr, labelStr
}

// Sample is one gathered metric value.
type Sample struct {
	Name   string
	Labels string // rendered `{k="v",...}`, "" when unlabeled
	Kind   Kind
	Value  float64       // counters and gauges
	Hist   *HistSnapshot // histograms
}

// Emitter receives samples from collector callbacks at gather time.
type Emitter struct {
	samples []Sample
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name string, v float64, labels ...string) {
	_, ls := metricID(name, labels)
	e.samples = append(e.samples, Sample{Name: name, Labels: ls, Kind: KindGauge, Value: v})
}

// Counter emits one counter sample (a monotonic value read from elsewhere,
// e.g. an engine-internal atomic).
func (e *Emitter) Counter(name string, v float64, labels ...string) {
	_, ls := metricID(name, labels)
	e.samples = append(e.samples, Sample{Name: name, Labels: ls, Kind: KindCounter, Value: v})
}

// Registry holds metrics. The zero value is not usable; create with
// NewRegistry. All methods are safe for concurrent use; metric handles are
// get-or-create, so two registrations of the same name+labels share state.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]Sample // identity -> name/labels/kind template
	order    []string          // registration order of identities
	collects []func(*Emitter)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		meta:     make(map[string]Sample),
	}
}

// Counter returns the counter with this name and label pairs, creating it on
// first use. Labels are alternating key, value strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	id, ls := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[id]; ok {
		return c
	}
	c := &Counter{}
	r.counters[id] = c
	r.register(id, Sample{Name: name, Labels: ls, Kind: KindCounter})
	return c
}

// Gauge returns the gauge with this name and label pairs, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	id, ls := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[id]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[id] = g
	r.register(id, Sample{Name: name, Labels: ls, Kind: KindGauge})
	return g
}

// Histogram returns the histogram with this name, bucket bounds, and label
// pairs, creating it on first use. Bounds must be sorted ascending; the
// implicit +Inf bucket is added automatically. An existing histogram keeps
// its original bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	id, ls := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[id]; ok {
		return h
	}
	h := newHistogram(bounds)
	r.hists[id] = h
	r.register(id, Sample{Name: name, Labels: ls, Kind: KindHistogram})
	return h
}

// register records identity metadata; caller holds r.mu.
func (r *Registry) register(id string, meta Sample) {
	r.meta[id] = meta
	r.order = append(r.order, id)
}

// CollectFunc registers a callback run at every Gather: it may emit any
// number of gauge or counter samples computed on the spot (queue depths,
// per-follower lag, plan-cache stats). Callbacks must not call back into
// this registry.
func (r *Registry) CollectFunc(fn func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collects = append(r.collects, fn)
}

// Gather snapshots every metric. Samples are ordered by registration (func
// collectors last, in registration order), which keeps exposition output
// stable for golden tests.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	collects := append(make([]func(*Emitter), 0, len(r.collects)), r.collects...)
	out := make([]Sample, 0, len(order)+8)
	for _, id := range order {
		s := r.meta[id]
		switch s.Kind {
		case KindCounter:
			s.Value = float64(r.counters[id].Value())
		case KindGauge:
			s.Value = r.gauges[id].Value()
		case KindHistogram:
			s.Hist = r.hists[id].Snapshot()
		}
		out = append(out, s)
	}
	r.mu.Unlock()
	// Collectors run outside the registry lock: they take their own locks
	// (engine, node) and must not deadlock against a concurrent registration.
	em := &Emitter{}
	for _, fn := range collects {
		fn(em)
	}
	return append(out, em.samples...)
}

// Flatten renders a gather result as a flat name{labels} -> value map — the
// wire form of the cluster_stats op. Histograms contribute _count, _sum, and
// _p50/_p95/_p99 entries.
func Flatten(samples []Sample) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		if s.Kind != KindHistogram {
			out[s.Name+s.Labels] = s.Value
			continue
		}
		h := s.Hist
		out[s.Name+"_count"+s.Labels] = float64(h.Count)
		out[s.Name+"_sum"+s.Labels] = h.Sum
		out[s.Name+"_p50"+s.Labels] = h.Quantile(0.50)
		out[s.Name+"_p95"+s.Labels] = h.Quantile(0.95)
		out[s.Name+"_p99"+s.Labels] = h.Quantile(0.99)
	}
	return out
}
