package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/wait"
)

// Client is a TCP client for a remote EMEWS service implementing
// core.Session: the embedded session (session.go) holds the ops and the call
// loop, and the Client is their transport over one connection (connect and
// settle below), which it never trades for another.
// A Client is multiplexed and pipelined: it speaks wire protocol v2 over one
// connection, every call ships a uniquely-numbered frame without waiting for
// earlier replies, and a demux goroutine routes response frames back to
// their callers by request ID. Concurrent callers may share one Client —
// their requests interleave on the wire, so N goroutines submitting through
// one connection land inside one server-side group-commit window instead of
// serializing on round trips. A long-poll in flight (QueryTasks, PopResults)
// never blocks other calls: the server parks it on its own goroutine and
// answers the rest out of order.
//
// The session commit token still ratchets on every response — writes and
// pops return their own WAL index, reads report the serving replica's
// applied index — and session-level reads ship it back as their freshness
// bound. When the connection dies, every in-flight call fails with ErrConn
// and failover clients (DialCluster) re-resolve exactly as before.
type Client struct {
	session // the op set (session.go), travelling over this connection

	conn net.Conn
	addr string

	// Write side: wmu serializes frame writes; fw.enc is the per-connection
	// encode scratch reused across requests.
	wmu sync.Mutex
	bw  *bufio.Writer
	fw  frameIO

	// mu guards the demux state below.
	mu        sync.Mutex
	pending   map[uint64]*call      // request ID -> waiting caller
	subs      map[uint64]*clientSub // request ID -> watch subscription (watch_client.go)
	nextID    uint64
	lastToken uint64 // highest commit token seen in any response
	connErr   error  // sticky; set once the connection is unusable

	// done is closed by the demux teardown once the connection is dead;
	// in-flight callers select on it alongside their own response channel.
	done chan struct{}
}

// call is a caller's parked mailbox for one in-flight request. Calls are
// pooled: the buffered channel is reused across requests (and across
// clients), which keeps a round trip from allocating a fresh channel every
// time. Reuse is safe because delivery happens under Client.mu only while
// the call is registered, and release drains any undelivered response before
// returning the call to the pool.
type call struct {
	ch chan response // buffered 1; demux copies the response in
}

var callPool = sync.Pool{
	New: func() any { return &call{ch: make(chan response, 1)} },
}

var _ core.Session = (*Client)(nil)

// ErrConn marks transport-level failures (dial, write, read, peer close) as
// opposed to application errors returned by the service. Failover clients
// re-resolve the leader when a call fails with ErrConn.
var ErrConn = errors.New("service: connection lost")

// ErrUnavailable marks transient cluster conditions (no leader yet, a
// draining node, a follower refusing a leader-only op: its message then names
// the leader's service address); callers may retry.
var ErrUnavailable = errors.New("service: temporarily unavailable")

// redirectError is a follower's refusal of a leader-only op (a write or a
// strong read): an ErrUnavailable carrying the leader's service address.
type redirectError struct{ msg, leader string }

func (e *redirectError) Error() string {
	return fmt.Sprintf("%v: %s; leader is %s", ErrUnavailable, e.msg, e.leader)
}

func (e *redirectError) Unwrap() error { return ErrUnavailable }

// ErrOverloaded marks a request the server refused at admission because its
// in-flight limit was reached. The request never executed (no side effects,
// safe to resend verbatim, writes included); the right response is to back
// off and retry the SAME node — unlike ErrUnavailable, failing over is
// pointless because the node is healthy, just saturated. The call loop
// (session.go) resends these on the same connection with backoff, so
// pipelined callers see slowdown, not errors, under overload.
var ErrOverloaded = errors.New("service: server overloaded")

var errClientClosed = errors.New("client closed")

// clientWriteTimeout bounds one frame write. Frames flush immediately, so a
// write only stalls when the peer stops draining its socket entirely.
const clientWriteTimeout = 30 * time.Second

// DefaultDialTimeout bounds one TCP connect when the caller brings no
// deadline of its own.
const DefaultDialTimeout = 5 * time.Second

// DialFunc dials the service; the signature matches net.DialTimeout.
// DialOptions.Dialer routes client traffic through a fault-injecting
// transport (internal/chaos) in tests; nil means the real network.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// DialOptions parameterizes Dial.
type DialOptions struct {
	// Timeout bounds the TCP connect (0: DefaultDialTimeout).
	Timeout time.Duration
	// Dialer overrides the transport. Nil uses net.DialTimeout.
	Dialer DialFunc
}

// Dial connects to a service with defaults, announcing the current wire
// protocol with the two-byte preamble (flushed together with the first
// request frame).
func Dial(addr string) (*Client, error) { return DialWith(addr, DialOptions{}) }

// DialWith is Dial with an explicit connect timeout and transport.
func DialWith(addr string, o DialOptions) (*Client, error) {
	if o.Timeout <= 0 {
		o.Timeout = DefaultDialTimeout
	}
	dial := o.Dialer
	if dial == nil {
		dial = net.DialTimeout
	}
	conn, err := dial("tcp", addr, o.Timeout)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w: %w", addr, ErrConn, err)
	}
	c := &Client{
		conn:    conn,
		addr:    addr,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint64]*call),
		done:    make(chan struct{}),
	}
	c.session = session{t: c}
	c.bw.Write([]byte{wireMagic, wireVersion})
	go c.demux()
	return c, nil
}

// demux is the connection's single reader: it decodes response frames,
// ratchets the session token, and hands each response to the caller waiting
// on its request ID. Responses decode into one scratch struct and ship to
// callers by value — safe because decodeResponse assigns every field, so
// nothing carries over between frames. A read failure is terminal for the
// connection — the stream position is unknowable — so every in-flight
// caller is failed by closing the client's done channel.
func (c *Client) demux() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var f frameIO
	var resp response
	for {
		id, err := f.readResponse(br, &resp)
		if err != nil {
			c.mu.Lock()
			if c.connErr == nil {
				c.connErr = err
			}
			clear(c.pending)
			subs := c.subs
			c.subs = nil
			c.mu.Unlock()
			cause := fmt.Errorf("service: read: %w: %w", ErrConn, err)
			for _, sub := range subs {
				sub.finish(cause)
			}
			close(c.done)
			c.conn.Close()
			return
		}
		c.mu.Lock()
		if resp.Token > c.lastToken {
			c.lastToken = resp.Token
		}
		// Watch subscriptions hold their request ID open: frames route to the
		// subscription until it finishes, not one-shot like pending calls.
		if sub, ok := c.subs[id]; ok {
			if !sub.deliver(&resp) {
				delete(c.subs, id)
			}
			c.mu.Unlock()
			continue
		}
		if cl, ok := c.pending[id]; ok {
			delete(c.pending, id)
			cl.ch <- resp // buffered 1; one delivery per registration, never blocks
		}
		c.mu.Unlock()
		// A response nobody waits for is a caller that timed out: drop it.
	}
}

// Close closes the connection; in-flight calls fail with ErrConn.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.connErr == nil {
		c.connErr = errClientClosed
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// register allocates a request ID and parks a pooled call mailbox for it.
func (c *Client) register() (uint64, *call, error) {
	cl := callPool.Get().(*call)
	c.mu.Lock()
	if c.connErr != nil {
		err := c.connErr
		c.mu.Unlock()
		callPool.Put(cl)
		return 0, nil, fmt.Errorf("service: %w: %w", ErrConn, err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = cl
	c.mu.Unlock()
	return id, cl, nil
}

// release returns a call to the pool once its registration is gone (the
// demux delivered, the teardown cleared the map, or unregister removed it).
// Draining first is what makes reuse safe: a response delivered after the
// caller stopped waiting must not be seen by the mailbox's next owner.
func (c *Client) release(cl *call) {
	select {
	case <-cl.ch:
	default:
	}
	callPool.Put(cl)
}

// unregister abandons an in-flight request. After it returns, the demux can
// no longer deliver into the call.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// send encodes and flushes one request frame. A write failure poisons the
// connection (the peer's stream position is unknowable) and fails every
// other in-flight call via the demux teardown.
func (c *Client) send(id uint64, req *request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(clientWriteTimeout))
	err := c.fw.writeRequest(c.bw, id, req)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.mu.Lock()
		if c.connErr == nil {
			c.connErr = err
		}
		c.mu.Unlock()
		c.conn.Close()
		return fmt.Errorf("service: write: %w: %w", ErrConn, err)
	}
	return nil
}

// roundTrip ships one request frame and waits for its response, which it
// leaves in *resp (zero unless one arrived). Other callers' round trips
// proceed concurrently on the same connection; this request's reply may
// arrive before or after theirs. The wait allows the server-side poll
// (timeout) plus grace for the network round trip.
func (c *Client) roundTrip(req *request, resp *response, timeout time.Duration) error {
	*resp = response{}
	if req.Trace == "" {
		req.Trace = obs.TraceID()
	}
	id, cl, err := c.register()
	if err != nil {
		return err
	}
	if err := c.send(id, req); err != nil {
		c.unregister(id)
		c.release(cl)
		return err
	}
	timer := wait.Timer(timeout + 10*time.Second)
	defer wait.Release(timer)
	select {
	case *resp = <-cl.ch:
		c.release(cl)
		return respErr(resp)
	case <-c.done:
		// The connection died — but a response may have been delivered just
		// before the teardown; prefer it.
		select {
		case *resp = <-cl.ch:
			c.release(cl)
			return respErr(resp)
		default:
		}
		c.mu.Lock()
		err := c.connErr
		c.mu.Unlock()
		c.release(cl)
		return fmt.Errorf("service: read: %w: %w", ErrConn, err)
	case <-timer.C:
		// Leave the connection alive — only this request is abandoned; a
		// late response frame is dropped by the demux loop. Failover layers
		// treat ErrConn as cause to invalidate and redial, which is right:
		// a server silent past the poll budget plus grace is suspect.
		c.unregister(id)
		c.release(cl)
		return fmt.Errorf("service: %w: no response to %q within %v",
			ErrConn, req.Op, timeout+10*time.Second)
	}
}

// respErr maps a decoded response to the Session error contract.
func respErr(resp *response) error {
	switch {
	case resp.OK:
		return nil
	case resp.Timeout:
		return core.ErrTimeout
	case resp.Overloaded:
		return fmt.Errorf("%w: %s", ErrOverloaded, resp.Error)
	case resp.Transient && resp.LeaderSvc != "":
		return &redirectError{msg: resp.Error, leader: resp.LeaderSvc}
	case resp.Transient:
		return fmt.Errorf("%w: %s", ErrUnavailable, resp.Error)
	}
	return errors.New(resp.Error)
}

// LastToken returns the highest commit token observed in any response on
// this client: the session's high-water mark for read-your-writes (and
// read-your-pops) reads.
func (c *Client) LastToken() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastToken
}

// Token implements core.Session.
func (c *Client) Token() core.Token { return c.LastToken() }

// connect implements transport: a Client is its own connection.
func (c *Client) connect() (*Client, error) { return c, nil }

// settle implements transport: the demux already ratchets the token, and a
// lost or refusing connection is not traded for another.
func (c *Client) settle(*Client, error) bool { return false }

// follow implements transport: a Client has no followers to ask first.
func (c *Client) follow(request, time.Duration) (response, bool, error) {
	return response{}, false, nil
}

// failTimeout implements transport.
func (c *Client) failTimeout() time.Duration { return defaultFailTimeout }

// chunked implements transport.
func (c *Client) chunked() bool { return false }

// Promote forces the connected node to promote itself to cluster leader,
// overriding the majority election gate — the operator escape hatch for
// deployments that cannot form a majority (canonically: the survivor of a
// 2-node cluster). It returns the node's post-promotion status. Use only
// when the missing peers are known dead; forcing both sides of a live
// partition splits the brain.
func (c *Client) Promote() (ClusterInfo, error) {
	resp, err := c.write(context.Background(), 5*time.Second, request{Op: "cluster_promote"})
	if err != nil {
		return ClusterInfo{}, err
	}
	return clusterInfo(resp), nil
}

// DialContext dials with retry until the service is up or ctx expires —
// used when funcX starts the service remotely and the client must wait for
// it to come online. Each attempt's connect timeout derives from the
// context deadline (clamped to DefaultDialTimeout), so a caller with a
// tight budget is not parked behind a 5s dial against a black-holed peer.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	for {
		to := DefaultDialTimeout
		if d, ok := ctx.Deadline(); ok {
			if r := time.Until(d); r < to {
				to = max(r, time.Millisecond)
			}
		}
		c, err := DialWith(addr, DialOptions{Timeout: to})
		if err == nil {
			if perr := c.Ping(); perr == nil {
				return c, nil
			}
			c.Close()
		}
		retry := wait.Timer(20 * time.Millisecond)
		select {
		case <-ctx.Done():
		case <-retry.C:
		}
		wait.Release(retry)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: %s not reachable: %w", addr, err)
		}
	}
}
