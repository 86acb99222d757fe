package service

import (
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"osprey/internal/obs"
)

// opSpec declares one wire op: its name and everything the server decides
// from the name alone. The table below is the only place an op's kind is
// written down; exec's switch is the only other place its name appears.
type opSpec struct {
	name string
	// write marks the API calls that mutate the task database and therefore
	// must execute on the cluster leader (a follower forwards them) and on a
	// connection worker (they can block). Everything else reads the local
	// replica. Note the "query" ops are writes: popping a task or result
	// mutates the queues.
	write bool
	// quorum marks the writes whose replies are held until the mutation is
	// quorum-replicated (Config.WriteQuorum > 0): the client-initiated state
	// changes that must survive the leader's immediate death once
	// acknowledged. The queue-popping polls (query_tasks, pop_results,
	// query_result) are deliberately excluded — they are at-most-once per
	// attempt by design and quorum-waiting each poll chunk would serialize
	// worker batching on replication round trips. Their responses still carry
	// the pop's commit token, so a session's later follower reads wait for
	// the pop to replicate (read-your-pops) even though the pop itself is
	// acknowledged on the leader's commit alone.
	quorum bool
	// control ops bypass admission control and draining: health probes,
	// leader resolution, and operator promotion must answer on a saturated or
	// draining server — they are precisely how clients and operators route
	// around it.
	control bool
	// blocks sends a non-write to a connection worker all the same
	// (cluster_promote waits out an election round).
	blocks bool
}

// opSpecs is every wire op the server answers, in exposition order.
var opSpecs = []opSpec{
	{name: "ping", control: true},
	{name: "cluster", control: true},
	{name: "cluster_promote", control: true, blocks: true},
	{name: "cluster_stats", control: true},
	{name: "task_get"},
	{name: "submit", write: true, quorum: true},
	{name: "submit_batch", write: true, quorum: true},
	{name: "query_tasks", write: true},
	{name: "report", write: true, quorum: true},
	{name: "query_result", write: true},
	{name: "pop_results", write: true},
	{name: "statuses"},
	{name: "priorities"},
	{name: "update_priorities", write: true, quorum: true},
	{name: "cancel", write: true, quorum: true},
	{name: "requeue", write: true, quorum: true},
	{name: "counts"},
	{name: "tags"},
	{name: "watch"},
	{name: "unwatch"},
}

// opEntry is one server's view of an op: the declaration plus its metrics,
// resolved once per request (serverMetrics.op) and passed along.
type opEntry struct {
	opSpec
	reqs *obs.Counter
	errs *obs.Counter
	lat  *obs.Histogram
}

// observe records one served request.
func (o *opEntry) observe(d time.Duration, ok bool) {
	o.reqs.Inc()
	if !ok {
		o.errs.Inc()
	}
	o.lat.Observe(d.Seconds())
}

// serverMetrics is the service layer's observability surface. The op table
// is built once at serve time — registering every op's metrics, so a scrape
// (and the CI smoke grep) sees the full metric surface at zero before any
// traffic — and is read-only afterwards: the request hot path does one map
// lookup plus atomics.
//
// Metrics: osprey_service_requests_total{op}, osprey_service_errors_total{op}
// and osprey_service_request_seconds{op} per op; osprey_service_forwards_total
// (requests a follower forwarded to its leader);
// osprey_service_malformed_total (connections that did not open with this
// build's preamble, or sent a bad frame — closed, and logged with the peer
// address); osprey_service_accept_errors_total; osprey_service_shed_total
// (requests refused at admission, WithMaxInflight);
// osprey_service_open_connections; osprey_service_draining (1 while Drain
// runs).
type serverMetrics struct {
	reg       *obs.Registry
	forwards  *obs.Counter
	malformed *obs.Counter
	acceptErr *obs.Counter
	shed      *obs.Counter
	openConns *obs.Gauge
	draining  *obs.Gauge
	ops       map[string]*opEntry

	mu      sync.Mutex
	unknown map[string]*opEntry // the first few op names outside opSpecs
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:       reg,
		forwards:  reg.Counter("osprey_service_forwards_total"),
		malformed: reg.Counter("osprey_service_malformed_total"),
		acceptErr: reg.Counter("osprey_service_accept_errors_total"),
		shed:      reg.Counter("osprey_service_shed_total"),
		openConns: reg.Gauge("osprey_service_open_connections"),
		draining:  reg.Gauge("osprey_service_draining"),
		ops:       make(map[string]*opEntry, len(opSpecs)),
		unknown:   make(map[string]*opEntry),
	}
	for _, spec := range opSpecs {
		m.ops[spec.name] = m.newOp(spec)
	}
	return m
}

func (m *serverMetrics) newOp(spec opSpec) *opEntry {
	return &opEntry{
		opSpec: spec,
		reqs:   m.reg.Counter("osprey_service_requests_total", "op", spec.name),
		errs:   m.reg.Counter("osprey_service_errors_total", "op", spec.name),
		lat:    m.reg.Histogram("osprey_service_request_seconds", obs.DurationBuckets, "op", spec.name),
	}
}

// op resolves a request's op name. A name outside opSpecs (a client probing)
// resolves to a plain local read, which exec refuses; such names are folded
// into a single "unknown" label after the first few distinct ones, so a
// client spraying random op strings cannot grow the registry without bound.
func (m *serverMetrics) op(name string) *opEntry {
	if o := m.ops[name]; o != nil {
		return o
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.unknown[name] == nil && len(m.unknown) >= 8 {
		name = "unknown"
	}
	o := m.unknown[name]
	if o == nil {
		o = m.newOp(opSpec{name: name})
		m.unknown[name] = o
	}
	return o
}

// ServerOption configures a Server at serve time.
type ServerOption func(*Server)

// WithLogger sets the server's structured logger. The default logs at Warn
// and above to stderr (malformed requests, accept failures); pass an
// Info-level logger to also get the per-hop request-forwarding lines that
// carry trace IDs across nodes.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// WithListener replaces the net.Listen used to bind the service port. Chaos
// tests inject fault-wrapped listeners here; nil keeps the real network.
func WithListener(listen ListenFunc) ServerOption {
	return func(s *Server) { s.listen = listen }
}

// WithMaxInflight caps the data-plane requests executing concurrently across
// all connections; arrivals beyond it are shed with a fast Overloaded
// response before any execution. 0 keeps DefaultMaxInflight.
func WithMaxInflight(n int) ServerOption {
	return func(s *Server) { s.maxReq = n }
}

func defaultLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// Metrics returns the server's metrics registry — the database's (and so the
// node's), which is why one scrape covers every layer.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// ServeOps starts the ops HTTP listener for this server: /metrics in
// Prometheus text format, /healthz (process liveness), /readyz (whether
// token-bounded reads would be served — a follower stalled past the
// staleness bound goes unready), /statusz (human-readable cluster snapshot),
// and /debug/pprof. Close the returned server to stop it.
func (s *Server) ServeOps(addr string) (*obs.OpsServer, error) {
	return obs.ServeOps(addr, obs.OpsConfig{
		Registry: s.met.reg,
		Healthz: func() obs.Health {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return obs.Health{OK: false, Detail: "server closed"}
			}
			return obs.Health{OK: true, Detail: "serving on " + s.Addr()}
		},
		Readyz: func() obs.Health {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return obs.Health{OK: false, Detail: "server closed"}
			}
			if s.draining.Load() {
				// Draining answers unready before anything else: the whole
				// point of the drain window is that routers stop sending
				// traffic here while in-flight requests finish.
				return obs.Health{OK: false, Detail: "draining"}
			}
			if s.node == nil {
				return obs.Health{OK: true, Detail: "standalone"}
			}
			ok, detail := s.node.Ready()
			return obs.Health{OK: ok, Detail: detail}
		},
		Statusz: func(w io.Writer) {
			io.WriteString(w, "service: "+s.Addr()+"\n")
			if s.node != nil {
				s.node.Status().WriteStatus(w)
			} else {
				io.WriteString(w, "mode: standalone\n")
				s.db.WriteDurability(w)
			}
		},
	})
}
