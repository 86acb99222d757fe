// Package funcx implements a federated function-as-a-service fabric modeled
// on the funcX platform OSPREY builds its computational fabric upon (paper
// §IV-B). It reproduces the control-plane contract the paper relies on:
//
//   - Endpoints deploy on a resource, register named functions, and poll the
//     hosted Broker for work (the pilot-job pull model).
//   - Clients authenticate with OAuth2-style bearer tokens, submit function
//     invocations to a named endpoint, and retrieve results later.
//   - Execution is fire-and-forget: the Broker stores and retries tasks when
//     an endpoint is offline or fails mid-run, and holds results (or
//     failures) until the client collects them.
//   - Input and output payloads are capped at 10 MB, the funcX limit that
//     motivates the out-of-band ProxyStore/Globus data path (§IV-E).
package funcx

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// MaxPayload is the funcX task input/output size limit (paper §IV-E).
const MaxPayload = 10 << 20

// Errors returned by the fabric.
var (
	ErrPayloadTooLarge = errors.New("funcx: payload exceeds 10MB limit")
	ErrUnauthorized    = errors.New("funcx: invalid or expired token")
	ErrNoEndpoint      = errors.New("funcx: unknown endpoint")
	ErrNoFunction      = errors.New("funcx: unknown function")
	ErrNoTask          = errors.New("funcx: unknown task")
	ErrRetriesExceeded = errors.New("funcx: task failed after maximum retries")
)

// TaskState is the broker-side lifecycle of a task.
type TaskState string

// Task lifecycle states.
const (
	TaskPending    TaskState = "pending"    // waiting for the endpoint
	TaskDispatched TaskState = "dispatched" // handed to an endpoint
	TaskComplete   TaskState = "complete"
	TaskFailed     TaskState = "failed"
)

// Function is a remotely invocable function. ctx is canceled if the hosting
// endpoint goes offline mid-execution.
type Function func(ctx context.Context, payload []byte) ([]byte, error)

// --- auth ---

// TokenIssuer is the OAuth2-style authorization service: it issues bearer
// tokens with a scope and expiry and validates them on every submission.
type TokenIssuer struct {
	mu     sync.Mutex
	tokens map[string]tokenInfo
}

type tokenInfo struct {
	scope   string
	expires time.Time
}

// NewTokenIssuer creates an empty issuer.
func NewTokenIssuer() *TokenIssuer {
	return &TokenIssuer{tokens: make(map[string]tokenInfo)}
}

// Issue mints a token with the given scope and time-to-live.
func (ti *TokenIssuer) Issue(scope string, ttl time.Duration) string {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		panic("funcx: crypto/rand failed: " + err.Error())
	}
	tok := hex.EncodeToString(buf)
	ti.mu.Lock()
	ti.tokens[tok] = tokenInfo{scope: scope, expires: time.Now().Add(ttl)}
	ti.mu.Unlock()
	return tok
}

// Validate checks that the token exists, has not expired, and carries scope.
func (ti *TokenIssuer) Validate(token, scope string) bool {
	ti.mu.Lock()
	info, ok := ti.tokens[token]
	ti.mu.Unlock()
	return ok && info.scope == scope && time.Now().Before(info.expires)
}

// --- broker ---

type task struct {
	id         string
	endpointID string
	fn         string
	payload    []byte

	mu       sync.Mutex
	state    TaskState
	result   []byte
	errMsg   string
	attempts int
	done     chan struct{}
}

func (t *task) finish(state TaskState, result []byte, errMsg string) {
	t.mu.Lock()
	if t.state == TaskComplete || t.state == TaskFailed {
		t.mu.Unlock()
		return
	}
	t.state = state
	t.result = result
	t.errMsg = errMsg
	t.mu.Unlock()
	close(t.done)
}

// Broker is the hosted funcX cloud service: the rendezvous between clients
// and endpoints.
type Broker struct {
	auth       *TokenIssuer
	maxRetries int

	mu        sync.Mutex
	pending   map[string][]*task // endpointID -> FIFO queue
	tasks     map[string]*task
	nextID    int
	endpoints map[string]bool // registered endpoint ids
}

// NewBroker creates a broker using auth for authorization. maxRetries bounds
// re-dispatch attempts after endpoint failures (default 5 when <= 0).
func NewBroker(auth *TokenIssuer, maxRetries int) *Broker {
	if maxRetries <= 0 {
		maxRetries = 5
	}
	return &Broker{
		auth:       auth,
		maxRetries: maxRetries,
		pending:    make(map[string][]*task),
		tasks:      make(map[string]*task),
		endpoints:  make(map[string]bool),
	}
}

// Scope required on tokens used with Submit.
const ScopeSubmit = "funcx:submit"

// register records an endpoint id (called by Endpoint).
func (b *Broker) register(endpointID string) {
	b.mu.Lock()
	b.endpoints[endpointID] = true
	b.mu.Unlock()
}

// submit enqueues an invocation for an endpoint, fire-and-forget.
func (b *Broker) submit(token, endpointID, fn string, payload []byte) (string, error) {
	if b.auth != nil && !b.auth.Validate(token, ScopeSubmit) {
		return "", ErrUnauthorized
	}
	if len(payload) > MaxPayload {
		return "", fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(payload))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.endpoints[endpointID] {
		return "", fmt.Errorf("%w: %q", ErrNoEndpoint, endpointID)
	}
	b.nextID++
	t := &task{
		id:         fmt.Sprintf("fx-%d", b.nextID),
		endpointID: endpointID,
		fn:         fn,
		payload:    payload,
		state:      TaskPending,
		done:       make(chan struct{}),
	}
	b.tasks[t.id] = t
	b.pending[endpointID] = append(b.pending[endpointID], t)
	return t.id, nil
}

// fetch hands up to max pending tasks to an endpoint poller.
func (b *Broker) fetch(endpointID string, max int) []*task {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.pending[endpointID]
	if len(q) == 0 {
		return nil
	}
	if max > len(q) {
		max = len(q)
	}
	out := q[:max]
	b.pending[endpointID] = append([]*task(nil), q[max:]...)
	for _, t := range out {
		t.mu.Lock()
		t.state = TaskDispatched
		t.attempts++
		t.mu.Unlock()
	}
	return out
}

// complete stores a task outcome delivered by an endpoint. An oversized
// result is converted into a failure, as the real service rejects it.
func (b *Broker) complete(t *task, result []byte, err error) {
	if err == nil && len(result) > MaxPayload {
		err = fmt.Errorf("%w: result is %d bytes", ErrPayloadTooLarge, len(result))
	}
	if err != nil {
		t.finish(TaskFailed, nil, err.Error())
		return
	}
	t.finish(TaskComplete, result, "")
}

// requeue returns an interrupted task to the pending queue (endpoint went
// offline mid-run). After maxRetries attempts the task fails permanently.
func (b *Broker) requeue(t *task) {
	t.mu.Lock()
	if t.state != TaskDispatched {
		t.mu.Unlock()
		return
	}
	attempts := t.attempts
	if attempts >= b.maxRetries {
		t.state = TaskFailed
		t.errMsg = ErrRetriesExceeded.Error()
		t.mu.Unlock()
		close(t.done)
		return
	}
	t.state = TaskPending
	t.mu.Unlock()
	b.mu.Lock()
	b.pending[t.endpointID] = append(b.pending[t.endpointID], t)
	b.mu.Unlock()
}

// --- client ---

// Client submits functions through a broker on behalf of a user.
type Client struct {
	broker *Broker
	token  string
}

// NewClient creates a client using the given bearer token.
func NewClient(b *Broker, token string) *Client {
	return &Client{broker: b, token: token}
}

// Submit requests execution of fn on endpointID with payload and returns a
// task id immediately (fire-and-forget).
func (c *Client) Submit(endpointID, fn string, payload []byte) (string, error) {
	return c.broker.submit(c.token, endpointID, fn, payload)
}

// Result blocks until the task completes or ctx is done, returning the
// result payload. A failed task returns an error carrying the remote
// failure message.
func (c *Client) Result(ctx context.Context, taskID string) ([]byte, error) {
	c.broker.mu.Lock()
	t, ok := c.broker.tasks[taskID]
	c.broker.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTask, taskID)
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == TaskFailed {
		return nil, fmt.Errorf("funcx: task %s failed: %s", taskID, t.errMsg)
	}
	return t.result, nil
}

// Call is Submit followed by Result: the synchronous convenience used for
// remote service management (starting databases and worker pools, §IV-B).
func (c *Client) Call(ctx context.Context, endpointID, fn string, payload []byte) ([]byte, error) {
	id, err := c.Submit(endpointID, fn, payload)
	if err != nil {
		return nil, err
	}
	return c.Result(ctx, id)
}

// --- endpoint ---

// Endpoint is the specialized software deployed on a computer to make it
// accessible for remote computation (§IV-B). It polls the broker for tasks
// and executes registered functions with bounded concurrency.
type Endpoint struct {
	ID     string
	broker *Broker

	mu      sync.Mutex
	fns     map[string]Function
	online  bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	poll    time.Duration
	workers int
}

// NewEndpoint registers an endpoint with the broker. workers bounds
// concurrent executions (default 4); poll is the broker polling interval
// (default 2 ms).
func NewEndpoint(b *Broker, id string, workers int, poll time.Duration) *Endpoint {
	if workers <= 0 {
		workers = 4
	}
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	ep := &Endpoint{ID: id, broker: b, fns: make(map[string]Function), poll: poll, workers: workers}
	b.register(id)
	return ep
}

// Register makes fn invocable under name.
func (ep *Endpoint) Register(name string, fn Function) {
	ep.mu.Lock()
	ep.fns[name] = fn
	ep.mu.Unlock()
}

// GoOnline starts the endpoint's poller; it is a no-op when already online.
func (ep *Endpoint) GoOnline() {
	ep.mu.Lock()
	if ep.online {
		ep.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep.online = true
	ep.cancel = cancel
	ep.mu.Unlock()

	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		ep.serve(ctx)
	}()
}

// GoOffline stops the endpoint, canceling in-flight executions; the broker
// requeues them (fire-and-forget fault tolerance).
func (ep *Endpoint) GoOffline() {
	ep.mu.Lock()
	if !ep.online {
		ep.mu.Unlock()
		return
	}
	ep.online = false
	cancel := ep.cancel
	ep.mu.Unlock()
	cancel()
	ep.wg.Wait()
}

func (ep *Endpoint) serve(ctx context.Context) {
	sem := make(chan struct{}, ep.workers)
	var running sync.WaitGroup
	ticker := time.NewTicker(ep.poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			running.Wait()
			return
		case <-ticker.C:
		}
		free := ep.workers - len(sem)
		if free == 0 {
			continue
		}
		for _, t := range ep.broker.fetch(ep.ID, free) {
			sem <- struct{}{}
			running.Add(1)
			go func(t *task) {
				defer running.Done()
				defer func() { <-sem }()
				ep.execute(ctx, t)
			}(t)
		}
	}
}

func (ep *Endpoint) execute(ctx context.Context, t *task) {
	ep.mu.Lock()
	fn, ok := ep.fns[t.fn]
	ep.mu.Unlock()
	if !ok {
		ep.broker.complete(t, nil, fmt.Errorf("%w: %q on endpoint %q", ErrNoFunction, t.fn, ep.ID))
		return
	}
	result, err := fn(ctx, t.payload)
	if ctx.Err() != nil && err != nil {
		// Interrupted by endpoint shutdown: hand back for retry.
		ep.broker.requeue(t)
		return
	}
	ep.broker.complete(t, result, err)
}
