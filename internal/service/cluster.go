package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"osprey/internal/core"
)

// ClusterClient is a failover-aware EMEWS service client. It implements
// core.Session against a replicated service cluster: it resolves the current
// leader through the "cluster" op, routes calls to it, and on connection
// loss or transient cluster errors re-resolves and retries until
// FailTimeout elapses. A follower refuses a leader-only op naming the leader,
// and the client re-resolves from that address at once (once per call; later
// refusals back off). ME algorithms and worker pools built on core.Session
// run unchanged across leader failover.
//
// The ops themselves are written once, in the embedded session (session.go:
// request construction, response conversion, and the call loop that retries
// every write, poll and leader-bound read). ClusterClient supplies only which
// connection an attempt goes to: the leader, re-resolved when it fails
// (connect, settle), and for reads the follower rotation tried before it
// (follow, tryFollowers). The methods declared here are the ones that really
// differ from a single connection's: Submit/SubmitBatch attach dedup keys,
// Watch resubscribes (watch_cluster.go).
//
// Retry semantics: idempotent reads retry freely. Queue-popping calls
// (QueryTasks, PopResults, QueryResult) are at-most-once per attempt, so a
// response lost to a dying leader can consume a queue entry without
// delivering it; QueryResult additionally reads the replicated task row
// after a failover (the call loop's callResult), so results of completed
// tasks are never lost with the old leader (they are, at worst, delivered
// twice).
//
// When the cluster runs with replica.Config.WriteQuorum > 0, every
// acknowledged write has already been applied by that many followers, so an
// acknowledged submit is never lost to leader death; a demoted or quorumless
// leader answers with ErrUnavailable, which this client treats like any
// transient condition — re-resolve the real leader and retry.
//
// Read scale-out: the client tracks a session commit token — the highest WAL
// index any of its operations has observed, pops included — and routes
// session- and eventual-consistency reads (GetTask, Statuses, Priorities,
// Counts, Tags) round-robin across follower replicas, shipping the token as a
// minimum-freshness bound. A follower serves the read only once its applied
// index has reached the token (read-your-writes, read-your-pops, and
// monotonic reads for this session); one that cannot catch up within the
// read's staleness bound answers transiently and the client moves on to the
// next follower, falling back to the leader last. Per-call consistency levels refine the routing:
// core.Strong() pins the read to the leader, core.Eventual() drops the
// freshness bound entirely. EMEWS workloads are dominated by status/result
// polling, so this is what lets followers absorb the read load instead of
// the leader serializing everything.
//
// Submits are idempotent by default: every Submit/SubmitBatch call without
// an explicit dedup key gets a session-unique one, so the client's own
// retries after an ambiguous quorum failure (write committed locally,
// acknowledgement lost) can never create duplicate tasks.
type ClusterClient struct {
	session // the op set (session.go), travelling over the transport below

	addrs []string

	// FailTimeout bounds how long a single call keeps retrying through
	// connection loss and leaderless windows (beyond the call's own polling
	// deadline). The default 15s rides out several election rounds.
	FailTimeout time.Duration
	// DialTimeout bounds each connection attempt during leader resolution
	// (default DefaultDialTimeout). Resolution scans every configured node,
	// so a cluster with firewalled (silently dropping) members wants this
	// well under FailTimeout.
	DialTimeout time.Duration
	// Dialer replaces the net.DialTimeout used for every connection this
	// client opens (leader and follower reads alike). Tests inject fault
	// transports here; nil uses the real network.
	Dialer DialFunc

	mu      sync.Mutex
	c       *Client
	leader  string                      // service address of c; while c is nil, the next resolution's first try
	token   uint64                      // session high-water commit token
	peers   []string                    // every member's service address (last resolution)
	readers map[string]*Client          // open read connections to followers
	readSeq uint64                      // round-robin cursor over followers
	readBad map[string]time.Time        // follower cooldown: skip recent failures
	streams map[*clusterStream]struct{} // open watch streams, which Close ends

	dedupBase string // session-unique prefix for generated dedup keys
	dedupSeq  uint64 // counter for generated dedup keys
}

var _ core.Session = (*ClusterClient)(nil)

// DialCluster connects to a replicated EMEWS service given the service
// addresses of any subset of its nodes (any one live node suffices: the
// membership is discovered from whichever answers). It fails only when no
// node is reachable: a cluster that answers but has no leader yet leaves the
// client with its membership learned, serving reads from the followers and
// resolving the leader on the first write.
func DialCluster(addrs ...string) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("service: DialCluster needs at least one address")
	}
	var rnd [8]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return nil, fmt.Errorf("service: dedup key seed: %w", err)
	}
	cc := &ClusterClient{
		addrs:       append([]string(nil), addrs...),
		FailTimeout: defaultFailTimeout,
		readers:     make(map[string]*Client),
		readBad:     make(map[string]time.Time),
		dedupBase:   "cc-" + hex.EncodeToString(rnd[:]),
	}
	cc.session = session{t: cc}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, err := cc.clientLocked(); err != nil && !errors.Is(err, errNoLeader) {
		return nil, err
	}
	return cc, nil
}

var errNoLeader = fmt.Errorf("%w: no cluster leader elected", ErrUnavailable) // nodes answered, none leads

// Close ends the watch streams opened through the client, then drops the
// current connection and all follower read connections. The client can be
// reused; the next call re-resolves.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	streams := cc.streams
	cc.streams = nil
	cc.mu.Unlock()
	// A stream's goroutine may be resubscribing: wait for it to exit (at
	// worst, one leader resolution) before the connections close, or it
	// would open a new one.
	for s := range streams {
		s.Close()
		s.exited.Wait()
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.c != nil {
		cc.c.Close()
		cc.c = nil
	}
	for addr, c := range cc.readers {
		c.Close()
		delete(cc.readers, addr)
	}
	return nil
}

// Leader returns the service address of the node currently used.
func (cc *ClusterClient) Leader() string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.leader
}

// Token implements core.Session: the session's high-water commit token — the
// WAL index of the newest write or pop (or freshest read) this client has
// observed. Session-level reads routed to followers carry it as their
// minimum-freshness bound.
func (cc *ClusterClient) Token() core.Token {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.token
}

// noteToken ratchets the session token (it never regresses).
func (cc *ClusterClient) noteToken(tok uint64) {
	cc.mu.Lock()
	if tok > cc.token {
		cc.token = tok
	}
	cc.mu.Unlock()
}

// autoDedupKeys fills keys with fresh session-unique idempotency keys,
// <dedupBase>-<seq>, reserved under one lock and sliced from one string.
func (cc *ClusterClient) autoDedupKeys(keys []string) {
	cc.mu.Lock()
	seq := cc.dedupSeq
	cc.dedupSeq += uint64(len(keys))
	cc.mu.Unlock()
	var small [64]byte
	buf := slices.Grow(small[:0], len(keys)*(len(cc.dedupBase)+21)) // '-' and 20 digits
	for i := range keys {
		buf = strconv.AppendUint(append(append(buf, cc.dedupBase...), '-'), seq+uint64(i)+1, 10)
	}
	all := string(buf)
	for i := range keys {
		n := len(cc.dedupBase) + 1 + len(strconv.AppendUint(small[:0], seq+uint64(i)+1, 10))
		keys[i], all = all[:n], all[n:]
	}
}

// connect implements transport: the cached leader connection, else a new
// resolution (clientLocked).
func (cc *ClusterClient) connect() (*Client, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.clientLocked()
}

// clientLocked returns the cached leader connection or resolves a new one:
// ask every configured node (and any leader it hints at) for its role and
// term. Among nodes claiming leadership the highest term wins — a deposed
// leader cut off from its followers still answers "leader" at its old term,
// and pinning to it would black-hole writes. A follower is never kept as the
// write connection: with nodes answering but none leading, resolution fails
// with errNoLeader (an ErrUnavailable) and the caller retries.
func (cc *ClusterClient) clientLocked() (*Client, error) {
	if cc.c != nil {
		return cc.c, nil
	}
	seen := make(map[string]bool, len(cc.addrs)+2)
	// The last-known leader (or the one a follower's redirect named) leads the
	// scan: it is the most likely answer, and it keeps a client dialed with a
	// subset of seed nodes working after those seeds die (the discovered
	// leader survives re-resolution).
	try := make([]string, 0, len(cc.addrs)+1)
	if cc.leader != "" {
		try = append(try, cc.leader)
	}
	try = append(try, cc.addrs...)
	var best *Client // highest-term leader claimant so far
	var bestAddr string
	var bestTerm uint64
	var failed error // without a leader: errNoLeader if any node answered, else the first failure
	for i := 0; i < len(try); i++ {
		addr := try[i]
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		c, err := cc.dial(addr)
		var info ClusterInfo
		if err == nil {
			if info, err = c.Cluster(); err != nil {
				c.Close()
			}
		}
		if err != nil {
			if failed == nil {
				failed = err
			}
			continue
		}
		failed = errNoLeader
		if info.LeaderSvc != "" && !seen[info.LeaderSvc] {
			try = append(try, info.LeaderSvc)
		}
		if len(info.PeerSvcs) > 0 {
			// Any member's view works: the leader broadcasts membership on
			// every heartbeat, so views converge within one beat.
			cc.peers = append(cc.peers[:0], info.PeerSvcs...)
		}
		if info.Role != "leader" || (best != nil && info.Term <= bestTerm) {
			c.Close()
			continue
		}
		if best != nil {
			best.Close()
		}
		best, bestAddr, bestTerm = c, addr, info.Term
	}
	if best != nil {
		cc.c, cc.leader = best, bestAddr
		return best, nil
	}
	if failed == nil {
		failed = fmt.Errorf("%w: no cluster node reachable", ErrConn)
	}
	return nil, failed
}

// dial opens a client connection through the configured dialer and timeout.
func (cc *ClusterClient) dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{Timeout: cc.DialTimeout, Dialer: cc.Dialer})
}

// settle implements transport. An answer on c ratchets the session token.
// A failure drops c if it is still the cached connection, and if err is a
// follower's redirect, the named leader leads the next resolution unless a
// concurrent call already re-resolved. Another connection can always be
// resolved.
func (cc *ClusterClient) settle(c *Client, err error) bool {
	if err == nil {
		cc.noteToken(c.LastToken())
		return true
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.c == c {
		cc.c.Close()
		cc.c = nil
	}
	if r := (*redirectError)(nil); errors.As(err, &r) && cc.c == nil {
		cc.leader = r.leader
	}
	return true
}

// failTimeout implements transport.
func (cc *ClusterClient) failTimeout() time.Duration { return cc.FailTimeout }

// chunked implements transport.
func (cc *ClusterClient) chunked() bool { return true }

// reader returns an open read connection to addr, dialing on first use.
func (cc *ClusterClient) reader(addr string) (*Client, error) {
	cc.mu.Lock()
	if c := cc.readers[addr]; c != nil {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()
	c, err := cc.dial(addr)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if prev := cc.readers[addr]; prev != nil {
		cc.mu.Unlock()
		c.Close()
		return prev, nil
	}
	cc.readers[addr] = c
	cc.mu.Unlock()
	return c, nil
}

// dropReader discards a failed read connection.
func (cc *ClusterClient) dropReader(addr string, c *Client) {
	cc.mu.Lock()
	if cc.readers[addr] == c {
		delete(cc.readers, addr)
	}
	cc.mu.Unlock()
	c.Close()
}

// tryFollowers runs fn against the follower replicas in round-robin order:
// every known member but the leader, minus those that failed or lagged within
// the last staleness window (a cooldown, so a bad follower does not tax every
// call with a fresh dial or a full staleness wait). A follower that is
// unreachable, saturated or answering transiently is cooled down — its
// connection dropped if that is what failed — and the rotation moves on. done
// reports that fn was answered for good, by success (which ratchets the
// session token) or by a refusal no other node would lift (err says which);
// otherwise the caller falls back to the leader connection and err is the
// last follower's failure, if any was tried.
func (cc *ClusterClient) tryFollowers(fn func(c *Client) error) (done bool, err error) {
	now := time.Now()
	cc.mu.Lock()
	var followers []string
	for _, addr := range cc.peers {
		if addr == "" || addr == cc.leader {
			continue
		}
		if bad, ok := cc.readBad[addr]; ok && now.Sub(bad) < readStaleness {
			continue
		}
		followers = append(followers, addr)
	}
	seq := cc.readSeq
	cc.readSeq++
	cc.mu.Unlock()

	for i := range followers {
		addr := followers[(int(seq)+i)%len(followers)]
		var c *Client
		if c, err = cc.reader(addr); err == nil {
			if err = fn(c); err == nil {
				cc.noteToken(c.LastToken())
				return true, nil
			}
			if !retryable(err) && !errors.Is(err, ErrOverloaded) {
				return true, err
			}
			if errors.Is(err, ErrConn) {
				cc.dropReader(addr, c)
			}
		}
		cc.mu.Lock()
		cc.readBad[addr] = time.Now()
		cc.mu.Unlock()
	}
	return false, err
}

// follow implements transport: a read tried once on each follower in
// rotation (tryFollowers), one attempt per follower, before the call loop
// takes it to the leader.
func (cc *ClusterClient) follow(req request, budget time.Duration) (resp response, done bool, err error) {
	done, err = cc.tryFollowers(func(c *Client) error { return c.roundTrip(&req, &resp, budget) })
	return resp, done, err
}

// Submit implements core.Session. Unless the caller supplied its own
// core.WithDedupKey, a session-unique key is attached, making the retries
// this client performs across failover and quorum timeouts idempotent: the
// write lands at most once no matter how often it is re-sent.
func (cc *ClusterClient) Submit(ctx context.Context, expID string, workType int, payload string, opts ...core.SubmitOption) (core.SubmitRes, error) {
	var o core.SubmitOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.DedupKey == "" {
		var key [1]string
		cc.autoDedupKeys(key[:])
		opts = append(opts[:len(opts):len(opts)], core.WithDedupKey(key[0]))
	}
	return cc.session.Submit(ctx, expID, workType, payload, opts...)
}

// SubmitBatch implements core.Session. Like Submit, a batch without
// caller-supplied keys gets session-unique dedup keys (one per payload) so a
// retried batch re-submits only the payloads that did not land the first
// time.
func (cc *ClusterClient) SubmitBatch(ctx context.Context, expID string, workType int, payloads []string, priorities []int, dedupKeys []string) (core.BatchRes, error) {
	if len(dedupKeys) == 0 {
		dedupKeys = make([]string, len(payloads))
		cc.autoDedupKeys(dedupKeys)
	}
	return cc.session.SubmitBatch(ctx, expID, workType, payloads, priorities, dedupKeys)
}

// String describes the client for logs.
func (cc *ClusterClient) String() string {
	return "cluster(" + strings.Join(cc.addrs, ",") + ")"
}
