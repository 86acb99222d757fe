package obs

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "op", "submit")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels (any order) returns the same handle.
	if r.Counter("reqs_total", "op", "submit") != c {
		t.Fatal("counter not deduplicated")
	}
	g := r.Gauge("depth", "queue", "out")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // 0.5..7.5 uniform-ish
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if p50 := s.Quantile(0.5); p50 < 1 || p50 > 5 {
		t.Fatalf("p50 = %g, want within [1,5]", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 4 || p99 > 8 {
		t.Fatalf("p99 = %g, want within [4,8]", p99)
	}
	if mean := s.Mean(); math.Abs(mean-4.0) > 0.2 {
		t.Fatalf("mean = %g, want ~4", mean)
	}
	// Values beyond the last bound land in +Inf and report the last bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if q := h2.Snapshot().Quantile(0.5); q != 1 {
		t.Fatalf("+Inf quantile = %g, want 1", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines while a
// reader snapshots it; run under -race this validates the lock-free design.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", DurationBuckets)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
				_ = r.Gather()
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(seed int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(seed*i%1000) * 1e-6)
			}
		}(w + 1)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

// TestPrometheusGolden pins the exact exposition output for a small registry.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("osprey_test_requests_total", "op", "submit").Add(3)
	r.Counter("osprey_test_requests_total", "op", "pop").Add(1)
	r.Gauge("osprey_test_open_connections").Set(2)
	h := r.Histogram("osprey_test_latency_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	r.GaugeFunc("osprey_test_depth", func() float64 { return 7 }, "queue", "out")

	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Gather()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE osprey_test_requests_total counter
osprey_test_requests_total{op="submit"} 3
osprey_test_requests_total{op="pop"} 1
# TYPE osprey_test_open_connections gauge
osprey_test_open_connections 2
# TYPE osprey_test_latency_seconds histogram
osprey_test_latency_seconds_bucket{le="0.01"} 1
osprey_test_latency_seconds_bucket{le="0.1"} 2
osprey_test_latency_seconds_bucket{le="+Inf"} 3
osprey_test_latency_seconds_sum 5.055
osprey_test_latency_seconds_count 3
# TYPE osprey_test_depth gauge
osprey_test_depth{queue="out"} 7
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestFlatten(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	h := r.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(0.5)
	m := Flatten(r.Gather())
	if m["c"] != 2 {
		t.Fatalf("c = %g", m["c"])
	}
	if m["h_count"] != 2 || m["h_sum"] != 1 {
		t.Fatalf("h_count=%g h_sum=%g", m["h_count"], m["h_sum"])
	}
	if _, ok := m["h_p99"]; !ok {
		t.Fatal("missing h_p99")
	}
}

func TestTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := TraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// TestTraceIDBatches: IDs are carved from one string minted traceBatch at a
// time, so minting allocates once per batch and IDs taken on several
// goroutines at once never repeat.
func TestTraceIDBatches(t *testing.T) {
	if n := testing.AllocsPerRun(4*traceBatch, func() { _ = TraceID() }); n != 0 {
		t.Errorf("TraceID: %v allocs per ID, want one per %d IDs", n, traceBatch)
	}
	const goroutines, each = 4, 3 * traceBatch
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				ids[g] = append(ids[g], TraceID())
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, list := range ids {
		for _, id := range list {
			if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
				t.Fatalf("trace id %q: want 16 hex digits", id)
			}
			if seen[id] {
				t.Fatalf("duplicate trace id %q", id)
			}
			seen[id] = true
		}
	}
}

func TestOpsServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("osprey_up_total").Inc()
	ready := Health{OK: true, Detail: "ready"}
	var mu sync.Mutex
	srv, err := ServeOps("127.0.0.1:0", OpsConfig{
		Registry: r,
		Readyz: func() Health {
			mu.Lock()
			defer mu.Unlock()
			return ready
		},
		Statusz: func(w io.Writer) { io.WriteString(w, "role: leader\n") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "osprey_up_total 1") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz: code=%d", code)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz: code=%d body=%q", code, body)
	}
	mu.Lock()
	ready = Health{OK: false, Detail: "follower lag 9 > bound"}
	mu.Unlock()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "lag") {
		t.Fatalf("/readyz after flip: code=%d body=%q", code, body)
	}
	if code, body := get("/statusz"); code != 200 || !strings.Contains(body, "role: leader") {
		t.Fatalf("/statusz: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}

// Mean returns the average observed value.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// GaugeFunc registers a single gauge computed at gather time.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	r.CollectFunc(func(e *Emitter) { e.Gauge(name, fn(), labels...) })
}
