// Command osprey-service runs the EMEWS task database and service (paper
// §IV-C): the resource-local component worker pools and ME algorithms
// connect to.
//
// The service speaks one wire protocol — length-prefixed binary frames with
// per-request IDs, so one client connection pipelines many concurrent
// requests. A connection that opens with anything else is counted, logged
// and closed.
//
// Without flags the database is in memory and dies with the process.
// Durable storage (the restart fault-tolerance path of §II-B1c, crash
// fault tolerance included; standalone or replicated):
//
//	osprey-service -addr 127.0.0.1:7654 -data-dir /var/lib/osprey -fsync
//
// With -data-dir, every committed write lands in an on-disk write-ahead log
// and the engine checkpoints periodically; on restart the node recovers its
// state from the latest checkpoint plus the log tail — no clean shutdown and
// no live peer required. It is the one persistence mode. -fsync holds each write acknowledgement until the
// log record is fsynced (concurrent writers share one fsync via the group
// commit window), surviving power loss; without it the log is flushed to the
// OS per write, surviving process crashes only. -checkpoint-every tunes how
// many log entries accumulate between checkpoints.
//
// Replicated cluster (live fault tolerance): start an initial leader, then
// join followers to its replication address. Priorities decide promotion
// order on leader death; clients connect with osprey.DialCluster. Bind
// concrete host addresses (they are what peers and clients are told to
// dial), or bind wildcards and name the dialable addresses explicitly with
// -advertise/-repl-advertise:
//
//	osprey-service -addr host1:7654 -node-id n1 -repl-addr host1:7700 -priority 3
//	osprey-service -addr host2:7655 -node-id n2 -repl-addr host2:7701 -priority 2 -join host1:7700
//	osprey-service -addr host3:7656 -node-id n3 -repl-addr host3:7702 -priority 1 -join host1:7700
//
// Replication is asynchronous by default. -write-quorum N holds every write
// acknowledgement until N followers have applied it, so an acknowledged
// write survives the leader dying immediately afterwards; a leader that
// loses contact with a majority of the cluster steps down and answers
// writes as unavailable until the real leader is found.
//
// Automatic failover needs a reachable majority, which a 2-node cluster
// cannot form after losing either member. The operator escape hatch is a
// forced manual promotion of the survivor:
//
//	osprey-service -promote host2:7655
//
// It overrides the majority election gate, so only use it when the missing
// peers are known dead — forcing both sides of a live partition creates
// split brain.
//
// Observability: -ops-addr starts an HTTP listener with /metrics (Prometheus
// text format), /healthz, /readyz (non-200 on a follower too stale to serve
// token-bounded reads), /statusz, and /debug/pprof. -log-level info adds a
// follower's "redirecting to leader" lines and -log-level debug every failed
// request, each with the request's trace ID. -slow-query
// logs statements slower than the threshold. Without the ops listener,
//
//	osprey-service -stats host1:7654
//
// prints the same metric values fetched over the service protocol.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"osprey/internal/core"
	"osprey/internal/replica"
	"osprey/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("osprey-service: ")
	var (
		addr            = flag.String("addr", "127.0.0.1:7654", "listen address")
		dataDir         = flag.String("data-dir", "", "directory for the durable WAL and checkpoints; empty runs in-memory")
		fsync           = flag.Bool("fsync", false, "fsync the WAL before acknowledging writes (requires -data-dir)")
		checkpointEvery = flag.Int("checkpoint-every", 0, "log entries between engine checkpoints (0: default, negative: disabled)")
		nodeID          = flag.String("node-id", "", "cluster node id; enables replicated mode")
		replAddr        = flag.String("repl-addr", "127.0.0.1:0", "replication (log shipping) listen address")
		replAdvertise   = flag.String("repl-advertise", "", "replication address peers should dial (default: the bound -repl-addr)")
		advertise       = flag.String("advertise", "", "service address peers and clients should dial (default: the bound -addr)")
		priority        = flag.Int("priority", 0, "promotion priority on leader death (higher wins)")
		join            = flag.String("join", "", "replication address of the leader to follow (empty: start as leader)")
		writeQuorum     = flag.Int("write-quorum", 0, "followers that must apply a write before it is acknowledged (0: asynchronous replication)")
		promote         = flag.String("promote", "", "admin: force-promote the node at this service address to cluster leader (majority-gate override for 2-node clusters), then exit")
		opsAddr         = flag.String("ops-addr", "", "ops HTTP listen address (/metrics, /healthz, /readyz, /statusz, /debug/pprof); empty disables")
		logLevel        = flag.String("log-level", "warn", "structured log level: debug, info, warn, error")
		slowQuery       = flag.Duration("slow-query", 0, "log SQL statements slower than this threshold (0: disabled)")
		stats           = flag.String("stats", "", "admin: print the metrics of the node at this service address (cluster_stats op), then exit")
		drainTimeout    = flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight requests before closing (SIGINT closes immediately)")
		maxInflight     = flag.Int("max-inflight", 0, "server-wide cap on concurrently executing requests; beyond it requests are shed with a fast overloaded response (0: default)")
	)
	flag.Parse()

	if *promote != "" {
		runPromote(*promote)
		return
	}
	if *stats != "" {
		runStats(*stats)
		return
	}
	if *fsync && *dataDir == "" {
		log.Fatal("-fsync requires -data-dir")
	}
	if *checkpointEvery != 0 && *dataDir == "" {
		log.Fatal("-checkpoint-every requires -data-dir")
	}
	dur := durability{dir: *dataDir, fsync: *fsync, checkpointEvery: *checkpointEvery}
	opts := []service.ServerOption{service.WithLogger(newLogger(*logLevel))}
	if *maxInflight > 0 {
		opts = append(opts, service.WithMaxInflight(*maxInflight))
	}
	if *nodeID != "" {
		runReplicated(*addr, *nodeID, *replAddr, *replAdvertise, *advertise, *priority, *writeQuorum, *join, *opsAddr, dur, *slowQuery, *drainTimeout, opts)
		return
	}
	runStandalone(*addr, *opsAddr, dur, *slowQuery, *drainTimeout, opts)
}

// shutdown blocks until a termination signal and stops the server
// accordingly: SIGTERM drains — stop accepting, go unready on /readyz,
// finish in-flight requests (bounded by drainTimeout), step down if leading
// — the rolling-restart path; SIGINT closes immediately, the Ctrl-C path.
func shutdown(srv *service.Server, drainTimeout time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	if s == syscall.SIGTERM {
		log.Printf("SIGTERM: draining (timeout %v)", drainTimeout)
		if srv.Drain(drainTimeout) {
			log.Printf("drained cleanly")
		} else {
			log.Printf("drain timeout expired; closing with requests in flight")
		}
		return
	}
	log.Printf("shutting down")
	srv.Close()
}

// durability groups the -data-dir flag family for plumbing into either mode.
type durability struct {
	dir             string
	fsync           bool
	checkpointEvery int
}

func newLogger(level string) *slog.Logger {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		log.Fatalf("bad -log-level %q: %v", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l}))
}

// startOps starts the ops HTTP listener and wires the slow-query log; both
// are observability taps on an already-running server.
func startOps(srv *service.Server, db *core.DB, opsAddr string, slowQuery time.Duration) {
	if slowQuery > 0 {
		db.Engine().SetSlowQueryLog(slowQuery, func(sql string, d time.Duration) {
			log.Printf("slow query (%v): %s", d, sql)
		})
	}
	if opsAddr == "" {
		return
	}
	ops, err := srv.ServeOps(opsAddr)
	if err != nil {
		log.Fatalf("ops listener: %v", err)
	}
	log.Printf("ops endpoints (metrics, health, pprof) on http://%s", ops.Addr())
}

// runStats fetches and prints the flattened metrics of a running node over
// the service protocol — for operators without access to the ops port.
func runStats(addr string) {
	c, err := service.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	stats, err := c.ClusterStats()
	if err != nil {
		log.Fatalf("fetching stats from %s: %v", addr, err)
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %g\n", name, stats[name])
	}
}

// runPromote force-promotes the replicated node at addr: the operator
// escape hatch for clusters that cannot form an electing majority.
func runPromote(addr string) {
	c, err := service.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	info, err := c.Promote()
	if err != nil {
		log.Fatalf("promoting %s: %v", addr, err)
	}
	log.Printf("node %s promoted: role=%s term=%d applied=%d", info.NodeID, info.Role, info.Term, info.Applied)
}

func runReplicated(addr, nodeID, replAddr, replAdvertise, advertise string, priority, writeQuorum int, join, opsAddr string, dur durability, slowQuery, drainTimeout time.Duration, opts []service.ServerOption) {
	n, err := replica.New(replica.Config{
		ID:              nodeID,
		Priority:        priority,
		Addr:            replAddr,
		Advertise:       replAdvertise,
		ServiceAddr:     advertise,
		Join:            join,
		WriteQuorum:     writeQuorum,
		DataDir:         dur.dir,
		Fsync:           dur.fsync,
		CheckpointEvery: dur.checkpointEvery,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := service.ServeNode(n, addr, opts...)
	if err != nil {
		n.Close()
		log.Fatal(err)
	}
	startOps(srv, n.DB(), opsAddr, slowQuery)
	role := "leader"
	if join != "" {
		role = fmt.Sprintf("follower of %s", join)
	}
	mode := "async replication"
	if writeQuorum > 0 {
		mode = fmt.Sprintf("write quorum %d", writeQuorum)
	}
	if dur.dir != "" {
		mode += fmt.Sprintf(", durable in %s (fsync=%v)", dur.dir, dur.fsync)
	}
	log.Printf("EMEWS service node %s (%s, priority %d, %s) listening on %s, replication on %s",
		nodeID, role, priority, mode, srv.Addr(), n.Addr())

	shutdown(srv, drainTimeout)
	n.Close()
}

func runStandalone(addr, opsAddr string, dur durability, slowQuery, drainTimeout time.Duration, opts []service.ServerOption) {
	db, err := loadDB(dur)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	srv, err := service.Serve(db, addr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	startOps(srv, db, opsAddr, slowQuery)
	log.Printf("EMEWS service listening on %s", srv.Addr())

	shutdown(srv, drainTimeout)
}

func loadDB(dur durability) (*core.DB, error) {
	if dur.dir == "" {
		return core.NewDB()
	}
	db, err := core.Open(dur.dir, core.OpenOptions{
		Fsync:           dur.fsync,
		CheckpointEvery: dur.checkpointEvery,
		Logf:            log.Printf,
	})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dur.dir, err)
	}
	log.Printf("durable state in %s (fsync=%v)", dur.dir, dur.fsync)
	return db, nil
}
