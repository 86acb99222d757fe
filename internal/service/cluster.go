package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"time"

	"osprey/internal/core"
)

// ClusterClient is a failover-aware EMEWS service client. It implements
// core.Session against a replicated service cluster: it resolves the current
// leader through the "cluster" op, routes calls to it, and on connection
// loss or transient cluster errors re-resolves and retries until
// FailTimeout elapses. ME algorithms and worker pools built on core.Session
// run unchanged across leader failover.
//
// The ops themselves are written once, in the embedded session (session.go:
// request construction, response conversion). ClusterClient supplies only
// how a request travels — the three transport calls: write is the leader
// connection re-resolved and retried (do), poll the same in sub-deadline
// chunks (pollChunked), read the follower rotation with the leader last
// (read, tryFollowers). The methods declared here are the ones that really
// differ from a single connection's: Submit/SubmitBatch attach dedup keys,
// QueryResult recovers a consumed result after a failover, Watch
// resubscribes (watch_cluster.go).
//
// Retry semantics: idempotent reads retry freely. Queue-popping calls
// (QueryTasks, PopResults, QueryResult) are at-most-once per attempt, so a
// response lost to a dying leader can consume a queue entry without
// delivering it; QueryResult additionally falls back to reading the
// replicated task row after a failover, so results of completed tasks are
// never lost with the old leader (they are, at worst, delivered twice).
//
// When the cluster runs with replica.Config.WriteQuorum > 0, every
// acknowledged write has already been applied by that many followers, so an
// acknowledged submit is never lost to leader death; a demoted or quorumless
// leader answers with ErrUnavailable, which this client treats like any
// transient condition — re-resolve the real leader and retry.
//
// Read scale-out: the client tracks a session commit token — the highest WAL
// index any of its operations has observed, pops included — and routes
// read-only calls (GetTask, Statuses, Priorities, Counts, Tags) round-robin
// across follower replicas, shipping the token as a minimum-freshness bound.
// A follower serves the read only once its applied index has reached the
// token (read-your-writes, read-your-pops, and monotonic reads for this
// session); one that cannot catch up within the read's staleness bound
// answers transiently and the client moves on to the next follower, falling
// back to the leader last. Per-call consistency levels refine the routing:
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
	// ReadFromFollowers routes session- and eventual-consistency reads across
	// follower replicas. Enabled by DialCluster; disable to pin every call to
	// the leader. Strong reads always go to the leader regardless.
	ReadFromFollowers bool

	mu      sync.Mutex
	c       *Client
	leader  string               // service address the current client is connected to
	token   uint64               // session high-water commit token
	peers   []string             // every member's service address (last resolution)
	readers map[string]*Client   // open read connections to followers
	readSeq uint64               // round-robin cursor over followers
	readBad map[string]time.Time // follower cooldown: skip recent failures

	dedupBase string // session-unique prefix for generated dedup keys
	dedupSeq  uint64 // counter for generated dedup keys
}

var _ core.Session = (*ClusterClient)(nil)

// DialCluster connects to a replicated EMEWS service given the service
// addresses of any subset of its nodes (any one live node suffices: the
// membership is discovered from whichever answers). It fails only when no
// node is reachable.
func DialCluster(addrs ...string) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("service: DialCluster needs at least one address")
	}
	var rnd [8]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return nil, fmt.Errorf("service: dedup key seed: %w", err)
	}
	cc := &ClusterClient{
		addrs:             append([]string(nil), addrs...),
		FailTimeout:       15 * time.Second,
		ReadFromFollowers: true,
		readers:           make(map[string]*Client),
		readBad:           make(map[string]time.Time),
		dedupBase:         "cc-" + hex.EncodeToString(rnd[:]),
	}
	cc.session = session{t: cc}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, err := cc.clientLocked(); err != nil {
		return nil, err
	}
	return cc, nil
}

// Close drops the current connection and all follower read connections. The
// client can be reused; the next call re-resolves.
func (cc *ClusterClient) Close() error {
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

// autoDedupKey returns a fresh session-unique idempotency key.
func (cc *ClusterClient) autoDedupKey() string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.dedupSeq++
	return fmt.Sprintf("%s-%d", cc.dedupBase, cc.dedupSeq)
}

func (cc *ClusterClient) client() (*Client, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.clientLocked()
}

// clientLocked returns the cached leader connection or resolves a new one:
// ask every configured node (and any leader it hints at) for its role and
// term. Among nodes claiming leadership the highest term wins — a deposed
// leader cut off from its followers still answers "leader" at its old term,
// and pinning to it would black-hole writes. With no leader reachable, any
// live node serves as fallback: its server forwards writes once a leader
// emerges.
func (cc *ClusterClient) clientLocked() (*Client, error) {
	if cc.c != nil {
		return cc.c, nil
	}
	seen := make(map[string]bool, len(cc.addrs)+2)
	// The last-known leader leads the scan: it is the most likely answer,
	// and it keeps a client dialed with a subset of seed nodes working after
	// those seeds die (the discovered leader survives re-resolution).
	try := make([]string, 0, len(cc.addrs)+1)
	if cc.leader != "" {
		try = append(try, cc.leader)
	}
	try = append(try, cc.addrs...)
	var best *Client // highest-term leader claimant so far
	var bestAddr string
	var bestTerm uint64
	var fallback *Client
	var fallbackAddr string
	var firstErr error
	for i := 0; i < len(try); i++ {
		addr := try[i]
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		c, err := cc.dial(addr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		info, err := c.Cluster()
		if err != nil {
			c.Close()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if info.LeaderSvc != "" && !seen[info.LeaderSvc] {
			try = append(try, info.LeaderSvc)
		}
		if len(info.PeerSvcs) > 0 {
			// Any member's view works: the leader broadcasts membership on
			// every heartbeat, so views converge within one beat.
			cc.peers = append(cc.peers[:0], info.PeerSvcs...)
		}
		if info.Role == "leader" {
			if best == nil || info.Term > bestTerm {
				if best != nil {
					best.Close()
				}
				best, bestAddr, bestTerm = c, addr, info.Term
			} else {
				c.Close()
			}
			continue
		}
		if fallback == nil {
			fallback, fallbackAddr = c, addr
		} else {
			c.Close()
		}
	}
	if best != nil {
		if fallback != nil {
			fallback.Close()
		}
		cc.c, cc.leader = best, bestAddr
		return best, nil
	}
	if fallback != nil {
		cc.c, cc.leader = fallback, fallbackAddr
		return fallback, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%w: no cluster node reachable", ErrConn)
	}
	return nil, firstErr
}

// dial opens a client connection through the configured dialer and timeout.
func (cc *ClusterClient) dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{Timeout: cc.DialTimeout, Dialer: cc.Dialer})
}

const (
	// retryDelay is the base of the exponential backoff between
	// re-resolution attempts, and retryMaxDelay its cap: long enough to shed
	// load during an election, short enough that calls notice a recovered
	// leader within one heartbeat-scale delay.
	retryDelay    = 25 * time.Millisecond
	retryMaxDelay = 500 * time.Millisecond
	// readStaleness bounds how long a follower may block catching up to the
	// session token before a read moves on (next follower, then leader) —
	// tightened per call by a shorter context deadline — and is how long a
	// follower that failed or lagged is skipped by later reads.
	readStaleness = time.Second
)

// retrySleep pauses before retry attempt n (0-based) with full jitter: a
// uniform draw from (0, min(retryMaxDelay, retryDelay·2^n)], so the many
// clients that lose a leader at once spread their reconnects out instead of
// stampeding the new leader in lockstep waves. Early attempts stay fast (a
// lost connection usually has a live leader one dial away); later attempts
// back off so a leaderless or overloaded cluster is not hammered.
func (cc *ClusterClient) retrySleep(attempt int) {
	d := min(retryMaxDelay, retryDelay<<uint(min(attempt, 16)))
	time.Sleep(time.Duration(mrand.Int63n(int64(d))) + 1)
}

// invalidate drops c if it is still the cached connection.
func (cc *ClusterClient) invalidate(c *Client) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.c == c {
		cc.c.Close()
		cc.c = nil
	}
}

// retryable reports whether an error justifies re-resolving the leader.
func retryable(err error) bool {
	return errors.Is(err, ErrConn) || errors.Is(err, ErrUnavailable)
}

// do runs fn against the current leader, retrying through connection loss
// and leaderless windows until budget + FailTimeout elapses.
func (cc *ClusterClient) do(budget time.Duration, fn func(c *Client) error) error {
	deadline := time.Now().Add(budget + cc.FailTimeout)
	var err error
	for attempt := 0; ; attempt++ {
		var c *Client
		c, err = cc.client()
		if err == nil {
			err = fn(c)
			switch {
			case err == nil:
				cc.noteToken(c.LastToken())
				return nil
			case errors.Is(err, ErrOverloaded):
				// The node is healthy, just saturated — keep the connection
				// (failing over would dogpile another node) and back off.
			case retryable(err):
				cc.invalidate(c)
			default:
				return err
			}
		}
		if time.Now().After(deadline) {
			return err
		}
		cc.retrySleep(attempt)
	}
}

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
// reports that fn was answered for good, by success or by a refusal no other
// node would lift (err says which); otherwise the caller falls back to the
// leader connection and err is the last follower's failure, if any was tried.
func (cc *ClusterClient) tryFollowers(fn func(c *Client) error) (done bool, err error) {
	if !cc.ReadFromFollowers {
		return false, nil
	}
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

// write implements transport: the leader connection, re-resolved and retried
// through connection loss and leaderless windows (do).
func (cc *ClusterClient) write(ctx context.Context, budget time.Duration, req request) (resp response, err error) {
	err = cc.do(budget, func(c *Client) error { return c.exchange(ctx, budget, &req, &resp) })
	return resp, err
}

// poll implements transport: the leader connection in sub-deadline chunks
// (pollChunked).
func (cc *ClusterClient) poll(ctx context.Context, req request) (resp response, err error) {
	err = cc.pollChunked(ctx, func(c *Client, chunk context.Context) (err error) {
		resp, err = c.poll(chunk, req)
		return err
	})
	return resp, err
}

// read implements transport: one read-only call at the consistency level
// opts select, routed as "Read scale-out" in the type comment describes. A
// strong read is also flagged on the wire, so a follower that turns out to be
// answering forwards it to the real leader. For the other levels the leader
// is the last resort — the fallback when every follower lags, the only target
// when none is known — so reads keep working on clusters of one and through
// the leaderless election window (followers still answer them).
func (cc *ClusterClient) read(ctx context.Context, opts []core.ReadOption, req request) (resp response, err error) {
	// A finished context aborts the read before any routing or round trip —
	// matching the mutating ops (reads have no one-shot-attempt contract).
	if err := ctx.Err(); err != nil {
		return response{}, core.CtxErr(ctx)
	}
	token, wait, level := cc.Token(), readStaleness, ""
	if d, ok := ctx.Deadline(); ok {
		if r := time.Until(d); r > 0 && r < wait {
			wait = r
		}
	}
	o := core.ApplyReadOptions(opts)
	switch o.Level {
	case core.LevelStrong:
		level = "strong"
	case core.LevelEventual:
		level, token, wait = "eventual", 0, 0
	}
	attempt := func(c *Client) (err error) {
		if resp, err = c.readAt(req, token, wait, level); err == nil {
			cc.noteToken(c.LastToken())
		}
		return err
	}
	if o.Level != core.LevelStrong {
		if done, err := cc.tryFollowers(attempt); done {
			return resp, err
		}
	}
	err = cc.do(time.Second, attempt)
	return resp, err
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
		opts = append(opts[:len(opts):len(opts)], core.WithDedupKey(cc.autoDedupKey()))
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
		for i := range dedupKeys {
			dedupKeys[i] = cc.autoDedupKey()
		}
	}
	return cc.session.SubmitBatch(ctx, expID, workType, payloads, priorities, dedupKeys)
}

// QueryResult implements core.Session. After a mid-call failover it
// additionally checks the replicated task row: a result whose input-queue
// entry was consumed by the dead leader (pop applied, response lost) is
// still recovered from the new leader's tasks table.
func (cc *ClusterClient) QueryResult(ctx context.Context, taskID int64) (core.ResultRes, error) {
	failedOver := false
	var res core.ResultRes
	err := cc.pollChunked(ctx, func(c *Client, chunk context.Context) error {
		if failedOver {
			if task, terr := c.GetTask(chunk, taskID); terr == nil && task.Status == core.StatusComplete {
				res = core.ResultRes{Result: task.Result, Token: c.LastToken()}
				return nil
			}
		}
		var err error
		res, err = c.QueryResult(chunk, taskID)
		if retryable(err) {
			failedOver = true
		}
		return err
	})
	return res, err
}

// pollChunked runs one polling call in sub-deadline chunks so a leader that
// dies mid-poll is noticed and replaced without giving up the whole wait.
// The overall deadline comes from ctx; without one the poll runs until
// something arrives or ctx is canceled.
func (cc *ClusterClient) pollChunked(ctx context.Context, fn func(c *Client, chunk context.Context) error) error {
	const chunk = 500 * time.Millisecond
	deadline, bounded := ctx.Deadline()
	var hardDeadline time.Time
	if bounded {
		hardDeadline = deadline.Add(cc.FailTimeout)
	}
	var connErr error // last connection-level failure; nil after any real answer
	attempted := false
	attempt := 0 // consecutive failed attempts, drives the retry backoff
	for {
		// A deadline expiry is handled below (grace chunks included); an
		// explicit cancellation aborts the poll outright.
		if err := ctx.Err(); errors.Is(err, context.Canceled) {
			return err
		}
		step := chunk
		if bounded {
			remain := time.Until(deadline)
			if remain <= 0 {
				switch {
				case !attempted:
					// Zero/expired deadline still gets one immediate try,
					// matching core.DB and Client semantics (a ready result
					// pops even with timeout 0).
					remain = time.Millisecond
				case connErr == nil:
					// The service genuinely answered "nothing yet" all the way
					// to the deadline.
					return core.ErrTimeout
				case time.Now().After(hardDeadline):
					return connErr
				default:
					// Connection trouble ate the tail of the budget: allow
					// grace chunks so a failover window does not surface as a
					// spurious timeout.
					remain = chunk
				}
			}
			step = remain
			if step > chunk {
				step = chunk
			}
		}
		c, err := cc.client()
		if err == nil {
			attempted = true
			stepCtx, cancel := context.WithTimeout(context.Background(), step)
			err = fn(c, stepCtx)
			cancel()
			switch {
			case err == nil:
				cc.noteToken(c.LastToken())
				return nil
			case errors.Is(err, core.ErrTimeout):
				connErr, attempt = nil, 0 // the node answered; reset backoff
				if !bounded {
					select {
					case <-ctx.Done():
						if errors.Is(ctx.Err(), context.DeadlineExceeded) {
							return core.ErrTimeout
						}
						return ctx.Err()
					default:
					}
				}
				continue
			case errors.Is(err, ErrOverloaded):
				// Saturated node: keep the connection, back off, retry.
				connErr = err
			case retryable(err):
				connErr = err
				cc.invalidate(c)
			default:
				return err
			}
		} else {
			connErr = err
		}
		if bounded && time.Now().After(hardDeadline) {
			return connErr
		}
		cc.retrySleep(attempt)
		attempt++
	}
}

// String describes the client for logs.
func (cc *ClusterClient) String() string {
	return "cluster(" + strings.Join(cc.addrs, ",") + ")"
}
