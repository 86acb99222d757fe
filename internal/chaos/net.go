// Package chaos is the fault-injection toolkit behind the robustness test
// suite: a network transport that partitions, delays, resets, and tears the
// byte streams between named nodes (net.go), a filesystem that fails fsyncs,
// runs out of space, and tears appends (fs.go), and a deterministic runner
// that interleaves those faults with client workloads on a real cluster and
// checks global invariants after healing (runner.go). Everything is driven
// through the injection seams the production packages expose — replica
// Dialer/Listen/FS, service DialOptions/WithListener, minisql FS — so the
// code under test is byte-for-byte the code that ships; with the seams unset
// none of this package is even linked into a production binary.
//
// The fault model: partitions, one-way blocks, added latency and connection
// kills on the network (chaos.Transport, wrapping the replica and service
// Dialer/Listener seams); write and sync errors and torn writes on disk (the
// minisql FS seam); and kill -9 crash/restart cycles that keep only the data
// directory. TestChaos drives a live 3-node quorum cluster through a seeded
// schedule of all of them under client load, then heals it and checks six
// invariants (runner.go, watcher.go). What the cluster must do to pass them —
// claim-based elections, the log comparison that gates a join's resume, the
// demotion of a leader that lost its majority — is specified in the replica
// package comment; admission control and draining, the service's two
// refusal kinds, in service.Server.admit and Server.Drain.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Network simulates an unreliable network between named nodes. Every
// connection a node opens (through Dialer) or accepts (through Listener)
// is wrapped so the Network can observe and interfere with it. Real TCP
// still carries the bytes underneath — the wrapper only decides whether and
// when they flow — so everything the production stack does (buffering,
// deadlines, concurrent frames) behaves exactly as in production.
//
// Fault semantics:
//
//   - Block(from, to) stops data flowing from->to: dials between the pair
//     fail immediately (either direction blocked kills the handshake, as it
//     would a real SYN or SYN-ACK), established connections crossing the
//     blocked direction are closed, and any write that still races through
//     is silently swallowed — the sender sees success, the receiver sees a
//     stalled stream, which is what a real partition looks like.
//   - Partition(groups...) blocks every pair that spans two groups, both
//     ways: a full split. Partial splits come from listing overlapping
//     groups or calling Block directly.
//   - SetLatency(d) sleeps every write for d first: a slow network.
//   - TearWrites(node, n) makes the node's next n writes deliver only a
//     prefix and then kill the connection: a peer dying mid-frame.
//   - ResetNode(node) closes every established connection touching node:
//     connection resets without a partition.
//   - Heal() clears partitions and latency (torn-write budgets included)
//     but does not resurrect closed connections — the layers above redial,
//     which is exactly the recovery path under test.
//
// Node identity: listeners register their bound address as owned by their
// node, so a dial's target resolves to a node ID; dialed connections
// register their local (ephemeral) address, so the accept side can resolve
// who is talking to it. Resolution is lazy — a connection whose peer is not
// yet registered passes traffic through until it is.
type Network struct {
	mu      sync.Mutex
	blocked map[string]map[string]bool // from -> to -> data flow severed
	latency time.Duration
	torn    map[string]int // node -> remaining writes to tear
	owners  map[string]string
	conns   map[*Conn]struct{}

	// Injected-fault counters, for asserting a schedule actually exercised
	// what it was meant to.
	DialsBlocked  atomic.Uint64
	WritesDropped atomic.Uint64
	WritesTorn    atomic.Uint64
	ConnsReset    atomic.Uint64
}

// NewNetwork returns a healthy network: all traffic passes until faults are
// injected.
func NewNetwork() *Network {
	return &Network{
		blocked: make(map[string]map[string]bool),
		torn:    make(map[string]int),
		owners:  make(map[string]string),
		conns:   make(map[*Conn]struct{}),
	}
}

// Dialer returns the dial function node `from` should use for every outbound
// connection. It matches the replica.DialFunc / service.DialFunc seams.
func (nw *Network) Dialer(from string) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		to := nw.ownerOf(addr)
		if nw.pairBlocked(from, to) {
			nw.DialsBlocked.Add(1)
			return nil, fmt.Errorf("chaos: dial %s->%s: partitioned", from, to)
		}
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		nw.mu.Lock()
		nw.owners[c.LocalAddr().String()] = from
		nw.mu.Unlock()
		return nw.newConn(c, from, to), nil
	}
}

// Listener returns the listen function for node `owner`: every socket it
// binds is registered as owned by that node and every accepted connection is
// wrapped. It matches the replica.ListenFunc / service.ListenFunc seams.
func (nw *Network) Listener(owner string) func(network, addr string) (net.Listener, error) {
	return func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		nw.mu.Lock()
		nw.owners[ln.Addr().String()] = owner
		nw.mu.Unlock()
		return &listener{Listener: ln, nw: nw, owner: owner}, nil
	}
}

// Block severs the from->to data flow (one-way partition). Connections
// currently crossing it are closed.
func (nw *Network) Block(from, to string) {
	nw.mu.Lock()
	nw.blockLocked(from, to)
	nw.mu.Unlock()
	nw.closeBlocked()
}

// BlockBoth severs both directions between a and b.
func (nw *Network) BlockBoth(a, b string) {
	nw.mu.Lock()
	nw.blockLocked(a, b)
	nw.blockLocked(b, a)
	nw.mu.Unlock()
	nw.closeBlocked()
}

// Partition splits the network into the given groups: every pair of nodes in
// different groups is blocked both ways; pairs within a group keep talking.
// Prior blocks are replaced.
func (nw *Network) Partition(groups ...[]string) {
	nw.mu.Lock()
	nw.blocked = make(map[string]map[string]bool)
	for i, g := range groups {
		for _, h := range groups[i+1:] {
			for _, a := range g {
				for _, b := range h {
					nw.blockLocked(a, b)
					nw.blockLocked(b, a)
				}
			}
		}
	}
	nw.mu.Unlock()
	nw.closeBlocked()
}

// Heal clears every partition, the added latency, and pending torn-write
// budgets. Closed connections stay closed; the layers above redial.
func (nw *Network) Heal() {
	nw.mu.Lock()
	nw.blocked = make(map[string]map[string]bool)
	nw.latency = 0
	nw.torn = make(map[string]int)
	nw.mu.Unlock()
}

// SetLatency delays every write by d.
func (nw *Network) SetLatency(d time.Duration) {
	nw.mu.Lock()
	nw.latency = d
	nw.mu.Unlock()
}

// TearWrites makes node's next n writes deliver only a prefix of their bytes
// and then close the connection mid-frame.
func (nw *Network) TearWrites(node string, n int) {
	nw.mu.Lock()
	nw.torn[node] += n
	nw.mu.Unlock()
}

// ResetNode closes every established connection touching node.
func (nw *Network) ResetNode(node string) {
	for _, c := range nw.snapshot() {
		from, to := c.endpoints()
		if from == node || to == node {
			nw.ConnsReset.Add(1)
			c.Conn.Close()
		}
	}
}

func (nw *Network) blockLocked(from, to string) {
	m := nw.blocked[from]
	if m == nil {
		m = make(map[string]bool)
		nw.blocked[from] = m
	}
	m[to] = true
}

// pairBlocked reports whether either direction between a and b is severed —
// the handshake test. Unknown nodes ("") are never blocked.
func (nw *Network) pairBlocked(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.blocked[a][b] || nw.blocked[b][a]
}

// flowBlocked reports whether the one-way from->to flow is severed.
func (nw *Network) flowBlocked(from, to string) bool {
	if from == "" || to == "" {
		return false
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.blocked[from][to]
}

func (nw *Network) ownerOf(addr string) string {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.owners[addr]
}

func (nw *Network) snapshot() []*Conn {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make([]*Conn, 0, len(nw.conns))
	for c := range nw.conns {
		out = append(out, c)
	}
	return out
}

// closeBlocked closes every established connection whose pair is now
// partitioned (in either direction — TCP dies as a whole).
func (nw *Network) closeBlocked() {
	for _, c := range nw.snapshot() {
		if from, to := c.endpoints(); nw.pairBlocked(from, to) {
			c.Conn.Close()
		}
	}
}

func (nw *Network) newConn(c net.Conn, from, to string) *Conn {
	cc := &Conn{Conn: c, nw: nw, from: from, to: to}
	nw.mu.Lock()
	nw.conns[cc] = struct{}{}
	nw.mu.Unlock()
	return cc
}

type listener struct {
	net.Listener
	nw    *Network
	owner string
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// The peer is unknown until its dialer registers its local address;
	// endpoints() resolves it lazily.
	return l.nw.newConn(c, l.owner, ""), nil
}

// Conn is one side of a wrapped connection. from is the node this side
// belongs to; its writes flow from->to.
type Conn struct {
	net.Conn
	nw   *Network
	from string
	to   string // "" until the accept side resolves its peer
}

// endpoints returns (from, to), resolving an accepted connection's peer
// lazily from the dial-side registration.
func (c *Conn) endpoints() (string, string) {
	c.nw.mu.Lock()
	defer c.nw.mu.Unlock()
	if c.to == "" {
		c.to = c.nw.owners[c.Conn.RemoteAddr().String()]
	}
	return c.from, c.to
}

func (c *Conn) Write(b []byte) (int, error) {
	from, to := c.endpoints()
	c.nw.mu.Lock()
	lat := c.nw.latency
	tear := false
	if c.nw.torn[from] > 0 {
		c.nw.torn[from]--
		tear = true
	}
	c.nw.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	if c.nw.flowBlocked(from, to) {
		// Swallowed, not failed: the sender believes the bytes left, the
		// receiver sees silence — a partition, not a reset. The underlying
		// connection is killed too (as TCP retransmit timeouts eventually
		// would): a stream with a byte gap must never resume after healing,
		// or both sides would decode garbage mid-frame.
		c.nw.WritesDropped.Add(1)
		c.Conn.Close()
		return len(b), nil
	}
	if tear && len(b) > 1 {
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		c.nw.WritesTorn.Add(1)
		return n, fmt.Errorf("chaos: torn write %s->%s", from, to)
	}
	return c.Conn.Write(b)
}

func (c *Conn) Close() error {
	c.nw.mu.Lock()
	delete(c.nw.conns, c)
	c.nw.mu.Unlock()
	return c.Conn.Close()
}
