package service

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"osprey/internal/core"
	"osprey/internal/replica"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestReadyzStalledFollower: a follower serves /readyz 200 while replicating,
// then flips to 503 once the leader is gone longer than the ready bound — the
// signal a load balancer needs to stop routing session reads at a node that
// would refuse them. A 2-node cluster makes the stall permanent: the survivor
// is 1 of 2, so the majority election gate (correctly) refuses promotion.
func TestReadyzStalledFollower(t *testing.T) {
	n1, srv1 := startClusterNode(t, "rz1", 2, "")
	defer srv1.Close()
	defer n1.Close()

	n2, err := replica.New(replica.Config{
		ID: "rz2", Priority: 1, Join: n1.Addr(),
		Heartbeat: beat, ElectionTimeout: elect,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	// /readyz's staleness bound is the node's 4x ElectionTimeout: 4*elect.
	srv2, err := ServeNode(n2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	c, err := Dial(srv1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(bg, "rz", 1, "payload"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "follower applied the submit", func() bool {
		return n2.Status().Applied >= 1
	})

	ops, err := srv2.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()

	if code, body := httpGet(t, "http://"+ops.Addr()+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz while replicating = %d (%s), want 200", code, body)
	}
	if code, _ := httpGet(t, "http://"+ops.Addr()+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	// The shared registry means the follower's scrape covers every layer.
	_, metrics := httpGet(t, "http://"+ops.Addr()+"/metrics")
	for _, want := range []string{
		"osprey_replica_role 0",
		"osprey_replica_applied_index",
		"osprey_db_queue_depth",
		"osprey_minisql_plan_cache_hits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("follower /metrics missing %q:\n%s", want, metrics)
		}
	}

	srv1.Close()
	n1.Close()
	waitCond(t, "/readyz to flip to 503 after leader death", func() bool {
		code, _ := httpGet(t, "http://"+ops.Addr()+"/readyz")
		return code == http.StatusServiceUnavailable
	})
	code, body := httpGet(t, "http://"+ops.Addr()+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "leader contact") {
		t.Fatalf("/readyz after leader death = %d %q, want 503 mentioning leader contact", code, body)
	}
	// Liveness is unaffected: the process is fine, it is just not ready.
	if code, _ := httpGet(t, "http://"+ops.Addr()+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after leader death = %d, want 200", code)
	}
}

// lockedBuf is a concurrency-safe slog sink.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceIDPropagation: one request keeps one client-minted trace ID
// through a redirect and its retry. A ClusterClient cached on a leader that
// then steps down sends it a Report; the deposed leader refuses it naming the
// new leader, the client retries there, and the new leader fails it (the
// task is queued, not running). The follower's "redirecting to leader" line
// and the new leader's "request failed" line are greppable by the same
// 16-hex-digit ID.
func TestTraceIDPropagation(t *testing.T) {
	var logs [3]lockedBuf
	nodes := make([]*replica.Node, 3)
	srvs := make([]*Server, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		join := ""
		if i > 0 {
			join = nodes[0].Addr()
		}
		n, err := replica.New(replica.Config{
			ID: fmt.Sprintf("tr%d", i+1), Priority: 3 - i, Join: join,
			Heartbeat: beat, ElectionTimeout: elect, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		logger := slog.New(slog.NewTextHandler(&logs[i], &slog.HandlerOptions{Level: slog.LevelDebug}))
		srv, err := ServeNode(n, "127.0.0.1:0", WithLogger(logger))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		nodes[i], srvs[i], addrs[i] = n, srv, srv.Addr()
	}
	waitCond(t, "membership converged", func() bool {
		for _, n := range nodes {
			if len(n.Peers()) != 3 {
				return false
			}
		}
		return true
	})

	cc, err := DialCluster(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if cc.Leader() != addrs[0] {
		t.Fatalf("client resolved %s, want the leader %s", cc.Leader(), addrs[0])
	}
	id, err := idOf(cc.Submit(bg, "trace", 1, "payload"))
	if err != nil {
		t.Fatal(err)
	}
	// A follower behind the deposed leader's log cannot win the election.
	waitCond(t, "followers caught up", func() bool {
		return nodes[1].Applied() == nodes[0].Applied() && nodes[2].Applied() == nodes[0].Applied()
	})

	if !nodes[0].StepDown() {
		t.Fatal("leader did not step down")
	}
	next := -1
	waitCond(t, "a new leader the deposed one knows", func() bool {
		for i := 1; i < 3; i++ {
			if nodes[i].IsLeader() && nodes[0].LeaderServiceAddr() == addrs[i] {
				next = i
				return true
			}
		}
		return false
	})

	_, err = cc.Report(bg, id, 1, "r")
	if err == nil || retryable(err) {
		t.Fatalf("Report of a queued task = %v; want the new leader's refusal", err)
	}

	re := regexp.MustCompile(`trace=([0-9a-f]{16})`)
	var trace string
	for _, line := range strings.Split(logs[0].String(), "\n") {
		if strings.Contains(line, "redirecting to leader") && strings.Contains(line, "op=report") &&
			strings.Contains(line, "leader="+addrs[next]) {
			if m := re.FindStringSubmatch(line); m != nil {
				trace = m[1]
			}
		}
	}
	if trace == "" {
		t.Fatalf("no redirect line for the report on the deposed leader:\n%s", logs[0].String())
	}
	for _, line := range strings.Split(logs[next].String(), "\n") {
		if strings.Contains(line, "request failed") && strings.Contains(line, "op=report") &&
			strings.Contains(line, "trace="+trace) {
			return
		}
	}
	t.Fatalf("no request-failed line with trace=%s on the new leader:\n%s", trace, logs[next].String())
}

// TestClusterStatsOp: the cluster_stats wire op returns the node's flattened
// metrics through the service port — the path `osprey-service -stats` and
// DialCluster use when the ops listener isn't reachable.
func TestClusterStatsOp(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(bg, "stats", 1, fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := c.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats[`osprey_service_requests_total{op="submit"}`]; got < 3 {
		t.Fatalf("submit request count = %v, want >= 3", got)
	}
	if got := stats[`osprey_db_op_seconds_count{op="submit"}`]; got < 3 {
		t.Fatalf("db submit histogram count = %v, want >= 3", got)
	}
	if got := stats[`osprey_db_queue_depth{queue="out"}`]; got != 3 {
		t.Fatalf("queue depth = %v, want 3", got)
	}

	// Same numbers through the failover-aware cluster client.
	cc, err := DialCluster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	stats2, err := cc.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats2[`osprey_service_requests_total{op="submit"}`]; got < 3 {
		t.Fatalf("cluster client submit count = %v, want >= 3", got)
	}
}
