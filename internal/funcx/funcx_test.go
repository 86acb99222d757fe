package funcx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const waitMax = 5 * time.Second

func newFabric(t *testing.T) (*Broker, *Endpoint, *Client) {
	t.Helper()
	auth := NewTokenIssuer()
	b := NewBroker(auth, 3)
	ep := NewEndpoint(b, "bebop", 4, time.Millisecond)
	ep.GoOnline()
	t.Cleanup(ep.GoOffline)
	tok := auth.Issue(ScopeSubmit, time.Minute)
	return b, ep, NewClient(b, tok)
}

func TestSubmitAndResult(t *testing.T) {
	_, ep, c := newFabric(t)
	ep.Register("double", func(ctx context.Context, p []byte) ([]byte, error) {
		return append(p, p...), nil
	})
	id, err := c.Submit("bebop", "double", []byte("ab"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	res, err := c.Result(ctx, id)
	if err != nil || string(res) != "abab" {
		t.Fatalf("Result = %q, %v", res, err)
	}
	st, _ := c.Status(id)
	if st != TaskComplete {
		t.Fatalf("status = %v", st)
	}
}

func TestCall(t *testing.T) {
	_, ep, c := newFabric(t)
	ep.Register("upper", func(ctx context.Context, p []byte) ([]byte, error) {
		return bytes.ToUpper(p), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	res, err := c.Call(ctx, "bebop", "upper", []byte("hi"))
	if err != nil || string(res) != "HI" {
		t.Fatalf("Call = %q, %v", res, err)
	}
}

func TestFunctionError(t *testing.T) {
	_, ep, c := newFabric(t)
	ep.Register("boom", func(ctx context.Context, p []byte) ([]byte, error) {
		return nil, errors.New("remote exploded")
	})
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	_, err := c.Call(ctx, "bebop", "boom", nil)
	if err == nil || !strings.Contains(err.Error(), "remote exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownFunctionAndEndpoint(t *testing.T) {
	_, _, c := newFabric(t)
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	if _, err := c.Call(ctx, "bebop", "nope", nil); err == nil {
		t.Fatal("unknown function must fail")
	}
	if _, err := c.Submit("theta", "f", nil); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("unknown endpoint err = %v", err)
	}
	if _, err := c.Status("fx-999"); !errors.Is(err, ErrNoTask) {
		t.Fatalf("unknown task err = %v", err)
	}
}

func TestPayloadCap(t *testing.T) {
	_, ep, c := newFabric(t)
	ep.Register("id", func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })
	big := make([]byte, MaxPayload+1)
	if _, err := c.Submit("bebop", "id", big); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversize input err = %v", err)
	}
	// Oversized *result* becomes a task failure.
	ep.Register("inflate", func(ctx context.Context, p []byte) ([]byte, error) {
		return make([]byte, MaxPayload+1), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	if _, err := c.Call(ctx, "bebop", "inflate", nil); err == nil ||
		!strings.Contains(err.Error(), "payload exceeds") {
		t.Fatalf("oversize result err = %v", err)
	}
}

func TestAuth(t *testing.T) {
	auth := NewTokenIssuer()
	b := NewBroker(auth, 3)
	ep := NewEndpoint(b, "e", 1, time.Millisecond)
	ep.GoOnline()
	defer ep.GoOffline()
	ep.Register("f", func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })

	bad := NewClient(b, "forged-token")
	if _, err := bad.Submit("e", "f", nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("forged token err = %v", err)
	}
	wrongScope := NewClient(b, auth.Issue("other:scope", time.Minute))
	if _, err := wrongScope.Submit("e", "f", nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong scope err = %v", err)
	}
	expired := NewClient(b, auth.Issue(ScopeSubmit, -time.Second))
	if _, err := expired.Submit("e", "f", nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("expired token err = %v", err)
	}
	tok := auth.Issue(ScopeSubmit, time.Minute)
	good := NewClient(b, tok)
	if _, err := good.Submit("e", "f", nil); err != nil {
		t.Fatalf("valid token: %v", err)
	}
	auth.Revoke(tok)
	if _, err := good.Submit("e", "f", nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("revoked token err = %v", err)
	}
}

func TestFireAndForgetOfflineEndpoint(t *testing.T) {
	// Submit while the endpoint is offline: the broker holds the task and
	// the endpoint picks it up when it comes online (paper §IV-B).
	auth := NewTokenIssuer()
	b := NewBroker(auth, 3)
	ep := NewEndpoint(b, "e", 1, time.Millisecond)
	ep.Register("f", func(ctx context.Context, p []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	c := NewClient(b, auth.Issue(ScopeSubmit, time.Minute))
	id, err := c.Submit("e", "f", nil)
	if err != nil {
		t.Fatalf("Submit to offline endpoint: %v", err)
	}
	if b.PendingFor("e") != 1 {
		t.Fatalf("pending = %d, want 1", b.PendingFor("e"))
	}
	time.Sleep(20 * time.Millisecond)
	if st, _ := c.Status(id); st != TaskPending {
		t.Fatalf("status while offline = %v", st)
	}
	ep.GoOnline()
	defer ep.GoOffline()
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	res, err := c.Result(ctx, id)
	if err != nil || string(res) != "ok" {
		t.Fatalf("Result = %q, %v", res, err)
	}
}

func TestRetryAfterMidRunFailure(t *testing.T) {
	// The endpoint dies mid-execution; the broker requeues and a restarted
	// endpoint completes the task.
	auth := NewTokenIssuer()
	b := NewBroker(auth, 5)
	ep := NewEndpoint(b, "e", 1, time.Millisecond)
	var attempts atomic.Int32
	started := make(chan struct{}, 8)
	ep.Register("flaky", func(ctx context.Context, p []byte) ([]byte, error) {
		n := attempts.Add(1)
		started <- struct{}{}
		if n == 1 {
			<-ctx.Done() // hang until the endpoint is killed
			return nil, ctx.Err()
		}
		return []byte("recovered"), nil
	})
	ep.GoOnline()
	c := NewClient(b, auth.Issue(ScopeSubmit, time.Minute))
	id, _ := c.Submit("e", "flaky", nil)
	<-started
	ep.GoOffline() // kill mid-run
	ep.GoOnline()  // restart
	defer ep.GoOffline()
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	res, err := c.Result(ctx, id)
	if err != nil || string(res) != "recovered" {
		t.Fatalf("Result = %q, %v (attempts=%d)", res, err, attempts.Load())
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2", attempts.Load())
	}
}

func TestRetriesExhausted(t *testing.T) {
	auth := NewTokenIssuer()
	b := NewBroker(auth, 2)
	ep := NewEndpoint(b, "e", 1, time.Millisecond)
	started := make(chan struct{}, 8)
	ep.Register("always-dies", func(ctx context.Context, p []byte) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c := NewClient(b, auth.Issue(ScopeSubmit, time.Minute))
	ep.GoOnline()
	id, _ := c.Submit("e", "always-dies", nil)
	for i := 0; i < 2; i++ {
		<-started
		ep.GoOffline()
		ep.GoOnline()
	}
	defer ep.GoOffline()
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	_, err := c.Result(ctx, id)
	if err == nil || !strings.Contains(err.Error(), "maximum retries") {
		t.Fatalf("err = %v, want retries exceeded", err)
	}
}

func TestConcurrencyBound(t *testing.T) {
	auth := NewTokenIssuer()
	b := NewBroker(auth, 3)
	ep := NewEndpoint(b, "e", 2, time.Millisecond)
	var cur, peak atomic.Int32
	ep.Register("slow", func(ctx context.Context, p []byte) ([]byte, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		cur.Add(-1)
		return nil, nil
	})
	ep.GoOnline()
	defer ep.GoOffline()
	c := NewClient(b, auth.Issue(ScopeSubmit, time.Minute))
	var ids []string
	for i := 0; i < 10; i++ {
		id, _ := c.Submit("e", "slow", nil)
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	for _, id := range ids {
		if _, err := c.Result(ctx, id); err != nil {
			t.Fatalf("Result: %v", err)
		}
	}
	if peak.Load() > 2 {
		t.Fatalf("peak concurrency = %d, workers = 2", peak.Load())
	}
}

func TestResultContextCancel(t *testing.T) {
	_, ep, c := newFabric(t)
	ep.Register("forever", func(ctx context.Context, p []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	id, _ := c.Submit("bebop", "forever", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Result(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestManyTasksAllComplete(t *testing.T) {
	_, ep, c := newFabric(t)
	ep.Register("echo", func(ctx context.Context, p []byte) ([]byte, error) { return p, nil })
	const n = 100
	ids := make([]string, n)
	for i := range ids {
		id, err := c.Submit("bebop", "echo", []byte(fmt.Sprint(i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = id
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	for i, id := range ids {
		res, err := c.Result(ctx, id)
		if err != nil || string(res) != fmt.Sprint(i) {
			t.Fatalf("Result %d = %q, %v", i, res, err)
		}
	}
}

// Revoke invalidates a token.
func (ti *TokenIssuer) Revoke(token string) {
	ti.mu.Lock()
	delete(ti.tokens, token)
	ti.mu.Unlock()
}

// status returns the task's state.
func (b *Broker) status(id string) (TaskState, error) {
	b.mu.Lock()
	t, ok := b.tasks[id]
	b.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoTask, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state, nil
}

// PendingFor reports the queue depth for an endpoint (monitoring).
func (b *Broker) PendingFor(endpointID string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending[endpointID])
}

// Status returns a task's current state without blocking.
func (c *Client) Status(taskID string) (TaskState, error) {
	return c.broker.status(taskID)
}
