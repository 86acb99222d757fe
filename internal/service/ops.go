package service

import (
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"osprey/internal/obs"
)

// knownOps is every wire op the server answers, in exposition order. Per-op
// metrics are pre-registered for all of them at serve time so a scrape (and
// the CI smoke grep) sees the full metric surface at zero before any traffic.
var knownOps = []string{
	"ping", "cluster", "cluster_promote", "cluster_stats", "task_get",
	"submit", "submit_batch", "query_tasks", "report", "query_result",
	"pop_results", "statuses", "priorities", "update_priorities", "cancel",
	"requeue", "counts", "tags", "watch", "unwatch",
}

// serverMetrics is the service layer's observability surface. The per-op
// maps are built once at serve time and read-only afterwards, so the request
// hot path does one map lookup plus atomics; ops outside knownOps (a client
// probing an unknown op name) fall through to the registry's locked
// get-or-create.
type serverMetrics struct {
	reg       *obs.Registry
	forwards  *obs.Counter
	malformed *obs.Counter
	acceptErr *obs.Counter
	shed      *obs.Counter
	openConns *obs.Gauge
	draining  *obs.Gauge
	reqs      map[string]*obs.Counter
	errs      map[string]*obs.Counter
	lat       map[string]*obs.Histogram

	mu      sync.Mutex
	unknown map[string]bool // interned unknown-op label guard
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
		reqs:      make(map[string]*obs.Counter, len(knownOps)),
		errs:      make(map[string]*obs.Counter, len(knownOps)),
		lat:       make(map[string]*obs.Histogram, len(knownOps)),
		unknown:   make(map[string]bool),
	}
	for _, op := range knownOps {
		m.reqs[op] = reg.Counter("osprey_service_requests_total", "op", op)
		m.errs[op] = reg.Counter("osprey_service_errors_total", "op", op)
		m.lat[op] = reg.Histogram("osprey_service_request_seconds", obs.DurationBuckets, "op", op)
	}
	return m
}

// observe records one dispatched request. Unknown op names are folded into a
// single "unknown" label after the first few distinct ones, so a client
// spraying random op strings cannot grow the registry without bound.
func (m *serverMetrics) observe(op string, d time.Duration, ok bool) {
	if _, known := m.reqs[op]; !known {
		m.mu.Lock()
		if !m.unknown[op] {
			if len(m.unknown) >= 8 {
				op = "unknown"
			} else {
				m.unknown[op] = true
			}
		}
		m.mu.Unlock()
		m.reg.Counter("osprey_service_requests_total", "op", op).Inc()
		if !ok {
			m.reg.Counter("osprey_service_errors_total", "op", op).Inc()
		}
		m.reg.Histogram("osprey_service_request_seconds", obs.DurationBuckets, "op", op).Observe(d.Seconds())
		return
	}
	m.reqs[op].Inc()
	if !ok {
		m.errs[op].Inc()
	}
	m.lat[op].Observe(d.Seconds())
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

// WithReadyBound sets the staleness bound behind /readyz on a follower: the
// longest a follower may go without leader contact (or, while lagging,
// without apply progress) and still report ready. 0 keeps the node default
// (4x ElectionTimeout).
func WithReadyBound(d time.Duration) ServerOption {
	return func(s *Server) { s.readyBound = d }
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
			ok, detail := s.node.Ready(s.readyBound)
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
