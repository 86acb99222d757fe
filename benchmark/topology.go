package main

import (
	"fmt"
	"os"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/replica"
	"osprey/internal/service"
)

// topology is one booted system under test: the nodes, their servers, and the
// two client sessions (ME side, pool side) a user of that deployment would
// hold. Everything in it is the product's own; the only foreign parts are the
// counters at the I/O seams.
type topology struct {
	me, pool core.Session // the two client connections (the same *core.DB in-process)

	dbs     []*core.DB      // every node's database; dbs[0] is the leader (or the only node)
	nodes   []*replica.Node // quorum-cycle only
	servers []*service.Server

	wire    *ioCount    // client side of the two service connections
	srvWire *ioCount    // server side of every service connection
	ship    *ioCount    // leader side of the replication streams
	fs      *countingFS // under the durable node
	dir     string      // durable node's data directory

	closers []func() // run in reverse order by close
}

func (t *topology) onClose(fn func()) { t.closers = append(t.closers, fn) }

// close shuts down clients, then servers, then nodes, and waits for each: the
// product's Close methods return only after their goroutines have exited.
func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

// registries returns every node's metrics registry.
func (t *topology) registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(t.dbs))
	for i, db := range t.dbs {
		regs[i] = db.Metrics()
	}
	return regs
}

// bootInProcess is the deep-queue topology: a bare in-memory core.DB, called
// directly.
func bootInProcess() (*topology, error) {
	db, err := core.NewDB()
	if err != nil {
		return nil, err
	}
	t := &topology{me: db, pool: db, dbs: []*core.DB{db}}
	t.onClose(db.Close)
	return t, nil
}

// serveAndDial puts db behind a loopback service and opens the two client
// connections through the counting dialer.
func (t *topology) serveAndDial(db *core.DB) error {
	t.wire, t.srvWire = &ioCount{}, &ioCount{}
	srv, err := service.Serve(db, "127.0.0.1:0", service.WithListener(t.srvWire.listen))
	if err != nil {
		return err
	}
	t.servers = append(t.servers, srv)
	t.onClose(srv.Close)
	for _, dst := range []*core.Session{&t.me, &t.pool} {
		c, err := service.DialWith(srv.Addr(), service.DialOptions{Dialer: t.wire.dial})
		if err != nil {
			return err
		}
		*dst = c
		t.onClose(func() { c.Close() })
	}
	return nil
}

// bootStandalone is one in-memory node behind a loopback service.
func bootStandalone() (*topology, error) {
	db, err := core.NewDB()
	if err != nil {
		return nil, err
	}
	t := &topology{dbs: []*core.DB{db}}
	t.onClose(db.Close)
	if err := t.serveAndDial(db); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// durableOptions are the options of the durable node: fsync before every
// acknowledgement, everything else the product's default.
func durableOptions(fs *countingFS) core.OpenOptions {
	return core.OpenOptions{Fsync: true, FS: fs}
}

// bootDurable is one node with a disk log and fsync behind a loopback
// service. dir must not exist yet; close does not remove it, because the
// recovery check reopens it.
func bootDurable(dir string) (*topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fs := newCountingFS()
	db, err := core.Open(dir, durableOptions(fs))
	if err != nil {
		return nil, err
	}
	t := &topology{dbs: []*core.DB{db}, fs: fs, dir: dir}
	t.onClose(db.Close)
	if err := t.serveAndDial(db); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// bootQuorum is a 3-node in-memory cluster with WriteQuorum 1 on loopback,
// no injected delay, and two failover-aware cluster clients.
func bootQuorum() (*topology, error) {
	t := &topology{wire: &ioCount{}, srvWire: &ioCount{}, ship: &ioCount{}}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	var addrs []string
	for i := 0; i < 3; i++ {
		cfg := replica.Config{ID: fmt.Sprintf("n%d", i+1), Priority: 3 - i, WriteQuorum: 1}
		if i == 0 {
			cfg.Listen = t.ship.listen
		} else {
			cfg.Join = t.nodes[0].Addr()
		}
		n, err := replica.New(cfg)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, n)
		t.dbs = append(t.dbs, n.DB())
		t.onClose(n.Close)
		srv, err := service.ServeNode(n, "127.0.0.1:0", service.WithListener(t.srvWire.listen))
		if err != nil {
			return nil, err
		}
		t.servers = append(t.servers, srv)
		t.onClose(srv.Close)
		addrs = append(addrs, srv.Addr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(t.nodes[0].Peers()) < 3 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("quorum boot: followers did not join within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	for _, dst := range []*core.Session{&t.me, &t.pool} {
		cc, err := service.DialCluster(addrs...)
		if err != nil {
			return nil, err
		}
		// DialCluster resolves the leader before a dialer can be set: drop
		// that connection so every byte of the run goes through the counter.
		cc.Dialer = t.wire.dial
		cc.Close()
		*dst = cc
		t.onClose(func() { cc.Close() })
	}
	ok = true
	return t, nil
}

// waitFollowers blocks until every follower has applied everything the
// leader has, and returns how long that took.
func (t *topology) waitFollowers(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	for {
		lead := t.nodes[0].Applied()
		behind := false
		for _, n := range t.nodes[1:] {
			if n.Applied() != lead {
				behind = true
			}
		}
		if !behind && lead == t.nodes[0].Applied() {
			return time.Since(t0), nil
		}
		if time.Since(t0) > timeout {
			return 0, fmt.Errorf("followers did not reach the leader's applied index %d within %v", lead, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
