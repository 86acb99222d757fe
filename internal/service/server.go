package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/replica"
	"osprey/internal/wait"
)

// ListenFunc opens the server's listening socket; it matches net.Listen.
// Tests inject fault-wrapped listeners through WithListener.
type ListenFunc func(network, addr string) (net.Listener, error)

// Server exposes an EMEWS task database over TCP.
type Server struct {
	db   *core.DB
	ln   net.Listener
	node *replica.Node // nil for standalone servers

	met    *serverMetrics // per-op counters/histograms (ops.go)
	log    *slog.Logger
	listen ListenFunc // socket factory (WithListener); nil = net.Listen
	maxReq int        // server-wide admission cap (WithMaxInflight)

	// Admission control: inflight counts the data-plane requests currently
	// executing across every connection. A request arriving beyond maxReq is
	// shed at dispatch — a fast Overloaded response before any execution or
	// side effect — so saturation surfaces as explicit backpressure clients
	// can back off on, instead of unbounded queueing. draining flips when
	// Drain starts: new data-plane work is refused transiently (failover
	// clients move to another node) while admitted requests finish.
	inflight atomic.Int64
	draining atomic.Bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Open watch subscriptions across every connection, so Drain can end the
	// push streams proactively (watch_server.go).
	watchMu  sync.Mutex
	watchers map[*srvSub]struct{}
}

// Serve starts a server for db on addr (e.g. "127.0.0.1:0") and returns once
// the listener is bound. Use Addr for the chosen address and Close to stop.
func Serve(db *core.DB, addr string, opts ...ServerOption) (*Server, error) {
	return serve(db, nil, addr, opts...)
}

// ServeNode starts a replica-aware server for cluster node n: reads are
// served from the local (replicated) database; while this node follows,
// writes — the queue-popping ops included — and strong-consistency reads are
// refused transiently with the leader's service address, so the client
// redirects there; and the "cluster" op reports leadership so failover
// clients can re-resolve. ServeNode also advertises the server's
// address to the cluster (unless ReplicaConfig.ServiceAddr already names a
// remotely dialable one — needed for wildcard binds or NAT) and starts the
// node's replication loops, so it is the one-call way to bring a cluster
// member up.
func ServeNode(n *replica.Node, addr string, opts ...ServerOption) (*Server, error) {
	s, err := serve(n.DB(), n, addr, opts...)
	if err != nil {
		return nil, err
	}
	if n.ServiceAddr() == "" {
		n.SetServiceAddr(s.Addr())
	}
	n.Start()
	return s, nil
}

func serve(db *core.DB, node *replica.Node, addr string, opts ...ServerOption) (*Server, error) {
	// The metrics registry is shared downward: the server reports into its
	// database's registry (which a replica node shares too), so one scrape
	// covers every layer.
	s := &Server{
		db: db, node: node, conns: make(map[net.Conn]struct{}),
		met: newServerMetrics(db.Metrics()), log: defaultLogger(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.maxReq <= 0 {
		s.maxReq = DefaultMaxInflight
	}
	listen := s.listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Drain shuts the server down gracefully, the SIGTERM path for rolling
// restarts: stop accepting connections, go unready (/readyz answers 503 so
// load balancers and orchestrators stop routing here), refuse newly arriving
// data-plane requests transiently (failover clients re-resolve to another
// node), and let the already-admitted requests finish — quorum waits
// included — bounded by timeout. A draining leader then proactively steps
// down, handing the cluster a head start on the election it would otherwise
// discover only by missing heartbeats, and finally the server closes.
// Returns true when every in-flight request finished inside the timeout.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	alreadyDraining := s.draining.Swap(true)
	s.mu.Unlock()
	if !alreadyDraining {
		s.met.draining.Set(1)
		s.ln.Close() // stop accepting; acceptLoop exits on net.ErrClosed
		// End every watch push stream now (terminal Transient frame) so parked
		// subscribers resubscribe elsewhere instead of waiting for the socket
		// to die.
		s.terminateWatches()
		s.log.Info("draining", "addr", s.Addr(), "inflight", s.inflight.Load())
	}
	deadline := time.Now().Add(timeout)
	clean := true
	for s.inflight.Load() > 0 {
		if !time.Now().Before(deadline) {
			clean = false
			s.log.Warn("drain deadline expired with requests in flight",
				"inflight", s.inflight.Load())
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Watch pumps hold no inflight slot; wait (inside the same deadline) for
	// their transient terminal frames to flush before connections close, so
	// parked subscribers learn to fail over rather than seeing a raw EOF.
	for s.watcherCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// In-flight work has resolved (or been abandoned): if this node leads,
	// demote now — its last quorum waits are done, so no acknowledged write
	// is still pending replication when leadership moves.
	if s.node != nil {
		s.node.StepDown()
	}
	s.Close()
	return clean
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (e.g. out of file descriptors): count
			// it, log it, and keep accepting rather than silently killing the
			// listener for the rest of the process lifetime.
			s.met.acceptErr.Inc()
			s.log.Warn("accept failed", "error", err)
			// The pause does not end early on Close: the check after it
			// returns at most 10ms late.
			time.Sleep(10 * time.Millisecond)
			if s.isClosed() {
				return
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.met.openConns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				s.met.openConns.Add(-1)
			}()
			s.handle(conn)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handle checks the connection's two-byte preamble — the wireMagic byte, then
// the client's protocol version — and serves binary frames. It is the only
// negotiation the protocol has, and it costs nothing on an established
// connection. Anything else (a first byte that is not the magic, a version
// this build does not speak) is not a protocol this server has: the
// connection is counted in osprey_service_malformed_total, logged with the
// peer address, and closed without a response.
func (s *Server) handle(conn net.Conn) {
	peer := conn.RemoteAddr().String()
	br := bufio.NewReaderSize(conn, 64<<10)
	magic, err := br.ReadByte()
	if err != nil {
		// Hung up (or was closed) before a single byte: not a protocol error.
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.isClosed() {
			s.log.Debug("connection read failed", "peer", peer, "error", err)
		}
		return
	}
	if magic != wireMagic {
		s.met.malformed.Inc()
		s.log.Warn("not a wire-protocol preamble, closing connection",
			"peer", peer, "first_byte", fmt.Sprintf("%#02x", magic))
		return
	}
	ver, err := br.ReadByte()
	if err != nil || ver == 0 || ver > wireVersion {
		s.met.malformed.Inc()
		s.log.Warn("unsupported wire preamble, closing connection",
			"peer", peer, "version", ver, "error", err)
		return
	}
	s.handleV2(conn, br, peer)
}

// maxInflight bounds one v2 connection's concurrently executing requests: a
// client pipelining faster than the database drains parks in the connection
// read loop (natural TCP backpressure) instead of growing an unbounded
// goroutine pile.
const maxInflight = 256

// v2conn bundles one binary-protocol connection's shared write side: the
// lock serializing frame writes, the buffered writer, and the encode
// scratch. writeResp and serve are methods rather than closures so the
// compiler can keep a completed response on the serving goroutine's stack.
type v2conn struct {
	s    *Server
	conn net.Conn
	peer string
	bw   *bufio.Writer
	wmu  sync.Mutex
	wf   frameIO // write-side scratch, guarded by wmu

	// Live watch subscriptions keyed by their request ID (watch_server.go),
	// torn down when the connection dies.
	subMu      sync.Mutex
	subs       map[uint64]*srvSub
	subsClosed bool
}

func (v *v2conn) writeResp(id uint64, resp *response, op, trace string) {
	v.wmu.Lock()
	err := v.wf.writeResponse(v.bw, id, resp)
	if err == nil {
		err = v.bw.Flush()
	}
	v.wmu.Unlock()
	if err != nil {
		v.s.logWriteErr(v.peer, op, trace, err)
		// The write stream is poisoned mid-frame; closing the connection
		// unblocks the read loop and fails the client over cleanly.
		v.conn.Close()
	}
}

// serve executes one request and writes its response frame.
func (v *v2conn) serve(id uint64, req *request, op *opEntry) {
	resp := v.s.dispatch(*req, op, v.peer)
	v.writeResp(id, &resp, req.Op, req.Trace)
}

// v2work is one request handed from the read loop to a connection worker.
type v2work struct {
	id  uint64
	req request
	op  *opEntry
}

// handleV2 serves one binary-protocol connection. The read loop decodes
// frames with per-connection reusable buffers and dispatches each request by
// shape: ops that can block — every write (pops and their long-polls
// included), quorum waits, promote, and any read that may wait on
// replication catch-up — are handed to connection workers so one slow
// request never stalls the requests pipelined behind it; plain local reads
// are answered inline, keeping the fast path allocation-light. Workers are
// spawned lazily, reused across requests (a pipelined stream of writes costs
// no per-request goroutine), and capped at maxInflight — when all are busy
// the blocking hand-off is the backpressure that parks the read loop.
// Responses are written in completion order under a write lock, each frame
// echoing its request ID so the client's demux can route it.
func (s *Server) handleV2(conn net.Conn, br *bufio.Reader, peer string) {
	v := &v2conn{s: s, conn: conn, peer: peer, bw: bufio.NewWriterSize(conn, 64<<10)}
	var (
		rf      frameIO // read-side scratch, owned by this loop
		wg      sync.WaitGroup
		workers int
	)
	work := make(chan v2work) // unbuffered: rendezvous with an idle worker
	defer func() {
		v.closeSubs()
		close(work)
		wg.Wait()
	}()
	for {
		id, req, err := rf.readRequest(br)
		if err != nil {
			var netErr net.Error
			switch {
			case s.isClosed(), errors.Is(err, net.ErrClosed):
			case errors.Is(err, errTruncated):
				// Includes a peer dying mid-frame (wrapped unexpected EOF):
				// either way the stream is unrecoverable and counted.
				s.met.malformed.Inc()
				s.log.Warn("malformed v2 frame, closing connection", "peer", peer, "error", err)
			case errors.Is(err, io.EOF): // clean hangup between frames
			case errors.As(err, &netErr):
				s.log.Debug("connection read failed", "peer", peer, "error", err)
			default:
				s.met.malformed.Inc()
				s.log.Warn("malformed v2 frame, closing connection", "peer", peer, "error", err)
			}
			return
		}
		// The decoded request owns all its memory (strings and slices are
		// copied out of the frame buffer), so it is safe to hand off while
		// the loop reuses the buffer for the next frame.
		// Watch subscriptions never go through dispatch: they need the frame
		// ID and the connection's write side to push notification frames, and
		// they hold no inflight slot (a parked subscriber is not load).
		op := s.met.op(req.Op)
		if req.Op == "watch" {
			v.startWatch(id, &req, op)
			continue
		}
		if req.Op == "unwatch" {
			v.serveUnwatch(id, &req, op)
			continue
		}
		// A strong read never waits: refused at once off the leader, local on it.
		mayBlock := op.write || op.blocks || (s.node != nil && req.Token > 0)
		if !mayBlock {
			v.serve(id, &req, op)
			continue
		}
		w := v2work{id: id, req: req, op: op}
		select {
		case work <- w: // an idle worker takes it
		default:
			if workers < maxInflight {
				workers++
				wg.Add(1)
				go func() {
					defer wg.Done()
					for w := range work {
						v.serve(w.id, &w.req, w.op)
					}
				}()
			}
			work <- w // all workers busy: block until one frees (backpressure)
		}
	}
}

// logWriteErr reports a failed response write — usually the client vanishing
// mid-poll, so Debug unless the server is still healthy and the error is not
// a network one.
func (s *Server) logWriteErr(peer, op, trace string, err error) {
	if s.isClosed() || errors.Is(err, net.ErrClosed) {
		return
	}
	s.log.Debug("response write failed", "peer", peer, "op", op, "trace", trace, "error", err)
}

// DefaultMaxInflight is the server-wide admission cap: the number of
// data-plane requests allowed to execute concurrently before new arrivals
// are shed with a fast Overloaded response. Four connections' worth of the
// per-connection pipeline bound — past that, queueing more work only grows
// latency for everyone already in line.
const DefaultMaxInflight = 4 * maxInflight

// admit reserves an admission slot for a data-plane request, or returns the
// refusal response. Shedding happens before any execution, so a shed request
// has had no side effect and is safe to resend verbatim — even the
// non-idempotent queue pops. A control op takes no slot; an admitted
// data-plane request releases its slot through dispatch.
func (s *Server) admit(op *opEntry) (response, bool) {
	if op.control {
		return response{}, true
	}
	if s.draining.Load() {
		return response{Error: "service: draining", Transient: true}, false
	}
	if n := s.inflight.Add(1); int(n) > s.maxReq {
		s.inflight.Add(-1)
		s.met.shed.Inc()
		return response{Error: "service: overloaded", Overloaded: true}, false
	}
	return response{}, true
}

// dispatch instruments and routes one request: admission control first (shed
// or drain refusals cost one atomic increment and no execution), then per-op
// request count and latency, error count (timeouts are normal long-poll
// outcomes, not errors), and the trace-correlated log lines that let one
// request be followed from a follower's redirect to the leader that served
// it. Requests from older clients without a trace ID get one minted here so
// the node's own log lines still correlate.
func (s *Server) dispatch(req request, op *opEntry, peer string) response {
	if refusal, ok := s.admit(op); !ok {
		return refusal
	}
	if !op.control {
		defer s.inflight.Add(-1)
	}
	if req.Trace == "" {
		req.Trace = obs.TraceID()
	}
	t0 := time.Now()
	resp := s.route(req, op)
	op.observe(time.Since(t0), resp.OK || resp.Timeout)
	if !resp.OK && !resp.Timeout {
		s.log.Debug("request failed", "op", req.Op, "trace", req.Trace, "peer", peer, "error", resp.Error)
	}
	return resp
}

func (s *Server) route(req request, op *opEntry) response {
	// Writes and strong-consistency reads must execute on the leader. A
	// follower refuses them transiently and names the leader it knows ("" while
	// none is), the redirect of Raft §8: the client retries there itself.
	if s.node != nil && (op.write || req.Level == "strong") && !s.node.IsLeader() {
		leader := s.node.LeaderServiceAddr()
		s.log.Info("redirecting to leader", "op", req.Op, "trace", req.Trace, "leader", leader)
		return response{Error: "service: not the leader", Transient: true, LeaderSvc: leader}
	}
	// Freshness-bounded reads: a client shipping a commit token demands that
	// this replica has applied the WAL at least through it. A replica that
	// cannot catch up within the client's wait bound answers transiently so
	// the client falls back to a fresher replica or the leader — the
	// staleness bound that makes follower reads safe to load-balance. Strong
	// reads reach here only on the leader, whose applied index is the newest
	// committed state; eventual reads carry token 0 and never wait.
	isRead := s.node != nil && !op.write
	if isRead && req.Token > 0 && req.Level != "strong" {
		if err := s.node.WaitApplied(req.Token, ms(req.WaitMS)); err != nil {
			return response{Error: "service: " + err.Error(), Transient: true}
		}
	}
	resp := s.exec(req)
	// The read token is captured AFTER the read executes: it may overstate
	// what the read observed (an entry applied mid-read), which only makes a
	// later token-bounded read wait longer. Capturing before would
	// understate, letting a session observe state its token does not cover —
	// a later read on a lagging follower could then un-see it, breaking the
	// monotonic-reads promise.
	var readToken uint64
	if isRead {
		readToken = s.node.Applied()
	}
	// In synchronous-replication mode a write is only confirmed once
	// WriteQuorum followers have applied it; a demoted or partitioned
	// leader answers with a transient error so DialCluster re-resolves the
	// real leader instead of trusting a zombie. The write may still have
	// committed locally — a failed ack is ambiguous, which is exactly what
	// dedup-keyed submits exist to disambiguate on retry. The wait covers
	// precisely the request's own WAL entry (its commit token).
	if resp.OK && s.node != nil && op.quorum {
		if err := s.node.WaitQuorumIndex(resp.Token); err != nil {
			return response{Error: "service: write not quorum-committed: " + err.Error(), Transient: true}
		}
	}
	if resp.OK && resp.Token == 0 {
		resp.Token = readToken
	}
	return resp
}

// pollCtx builds the server-side polling context from the request's WaitMS
// deadline. An expired (or zero) budget still performs one immediate attempt
// inside the Session, preserving the try-then-wait contract. The context is
// a pooled wait.Deadline, released when the op returns: core.DB's
// QueryTasks, QueryResult and PopResults read its Err and block on its Done
// (pollWait) during the call only, and derive nothing from it.
func pollCtx(req request) (context.Context, func()) {
	return wait.Deadline(ms(req.WaitMS))
}

// exec runs one request against the local database.
func (s *Server) exec(req request) response {
	ctx := context.Background()
	switch req.Op {
	case "ping":
		return response{OK: true}
	case "cluster":
		resp := response{OK: true, Role: "leader", LeaderSvc: s.Addr(), PeerSvcs: []string{s.Addr()}}
		if s.node != nil {
			resp.Role = s.node.Role().String()
			resp.NodeID = s.node.ID()
			resp.LeaderSvc = s.node.LeaderServiceAddr()
			resp.Term = s.node.Term()
			resp.Applied = s.node.Applied()
			resp.PeerSvcs = resp.PeerSvcs[:0]
			for _, p := range s.node.Peers() {
				if p.SvcAddr != "" {
					resp.PeerSvcs = append(resp.PeerSvcs, p.SvcAddr)
				}
			}
		}
		return resp
	case "cluster_stats":
		resp := s.exec(request{Op: "cluster"})
		resp.Stats = obs.Flatten(s.met.reg.Gather())
		return resp
	case "cluster_promote":
		if s.node == nil {
			return response{Error: "service: cluster_promote on a standalone (non-replicated) server"}
		}
		if err := s.node.ForcePromote(); err != nil {
			return errResponse(err)
		}
		return s.exec(request{Op: "cluster"})
	case "task_get":
		task, err := s.db.GetTask(ctx, req.TaskID)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Tasks: []core.Task{task}}
	case "submit":
		// Options are built only for non-default settings: the common bare
		// submit passes an empty opts slice and allocates nothing here.
		var opts []core.SubmitOption
		if req.Priority != 0 {
			opts = append(opts, core.WithPriority(req.Priority))
		}
		if len(req.Tags) > 0 {
			opts = append(opts, core.WithTags(req.Tags...))
		}
		if req.DedupKey != "" {
			opts = append(opts, core.WithDedupKey(req.DedupKey))
		}
		res, err := s.db.Submit(ctx, req.ExpID, req.WorkType, req.Payload, opts...)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, TaskID: res.ID, Token: res.Token}
	case "submit_batch":
		res, err := s.db.SubmitBatch(ctx, req.ExpID, req.WorkType, req.Payloads, req.Priorities, req.DedupKeys)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, TaskIDs: res.IDs, Token: res.Token}
	case "query_tasks":
		pctx, release := pollCtx(req)
		defer release()
		res, err := s.db.QueryTasks(pctx, req.WorkType, req.N, req.Pool)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Tasks: res.Tasks, Token: res.Token}
	case "report":
		res, err := s.db.Report(ctx, req.TaskID, req.WorkType, req.Result)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Token: res.Token}
	case "query_result":
		pctx, release := pollCtx(req)
		defer release()
		res, err := s.db.QueryResult(pctx, req.TaskID)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, ResultText: res.Result, Token: res.Token}
	case "pop_results":
		pctx, release := pollCtx(req)
		defer release()
		res, err := s.db.PopResults(pctx, req.TaskIDs, req.N)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Results: res.Results, Token: res.Token}
	case "statuses":
		sts, err := s.db.Statuses(ctx, req.TaskIDs)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, StatusMap: sts}
	case "priorities":
		prios, err := s.db.Priorities(ctx, req.TaskIDs)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, PrioMap: prios}
	case "update_priorities":
		res, err := s.db.UpdatePriorities(ctx, req.TaskIDs, req.Priorities)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Count: res.Count, Token: res.Token}
	case "cancel":
		res, err := s.db.CancelTasks(ctx, req.TaskIDs)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Count: res.Count, Token: res.Token}
	case "requeue":
		res, err := s.db.RequeueRunning(ctx, req.Pool)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Count: res.Count, Token: res.Token}
	case "counts":
		counts, err := s.db.Counts(ctx, req.ExpID)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, CountsMap: counts}
	case "tags":
		tags, err := s.db.Tags(ctx, req.TaskID)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, TagList: tags}
	}
	return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

func errResponse(err error) response {
	return response{
		Error: err.Error(), Timeout: errors.Is(err, core.ErrTimeout),
		// A write refused at commit because this node stopped leading never
		// happened; the client re-resolves the leader and retries.
		Transient: errors.Is(err, replica.ErrNotLeader),
	}
}

func ms(v int64) time.Duration { return time.Duration(v) * time.Millisecond }
