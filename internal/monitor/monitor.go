// Package monitor implements the active monitoring and termination of
// worker pools that the paper lists as future work (§VII, the PSI/J item):
// a registry that tracks pool heartbeats, exposes liveness, terminates
// pools on demand, and automatically requeues tasks owned by pools whose
// heartbeats stop — closing the fault-tolerance loop that core.Session's
// RequeueRunning provides the primitive for.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"osprey/internal/core"
)

// ErrUnknownPool is returned for operations on unregistered pools.
var ErrUnknownPool = errors.New("monitor: unknown pool")

// PoolState is the monitor's view of one worker pool.
type PoolState string

// Pool liveness states.
const (
	PoolAlive      PoolState = "alive"
	PoolSuspect    PoolState = "suspect" // one missed heartbeat window
	PoolDead       PoolState = "dead"    // declared failed, tasks requeued
	PoolTerminated PoolState = "terminated"
)

// PoolInfo is a snapshot of one monitored pool.
type PoolInfo struct {
	Name          string
	State         PoolState
	LastHeartbeat time.Time
	Requeued      int // tasks recovered after death
}

type poolEntry struct {
	info   PoolInfo
	cancel context.CancelFunc // terminates the pool's Run context
}

// Monitor tracks worker pools against an EMEWS DB.
type Monitor struct {
	sess     core.Session
	interval time.Duration // heartbeat window
	mu       sync.Mutex
	pools    map[string]*poolEntry
	stopped  bool
	done     chan struct{}
}

// New creates a monitor. interval is the heartbeat window: a pool missing
// one window becomes suspect, missing two is declared dead and its running
// tasks are requeued.
func New(sess core.Session, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = time.Second
	}
	m := &Monitor{
		sess: sess, interval: interval,
		pools: make(map[string]*poolEntry),
		done:  make(chan struct{}),
	}
	go m.sweep()
	return m
}

// Register adds a pool under watch. cancel, if non-nil, is invoked by
// Terminate to stop the pool's Run loop.
func (m *Monitor) Register(name string, cancel context.CancelFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pools[name] = &poolEntry{
		info:   PoolInfo{Name: name, State: PoolAlive, LastHeartbeat: time.Now()},
		cancel: cancel,
	}
}

// Heartbeat records liveness for a pool. Unknown pools are ignored (they
// may have been terminated already).
func (m *Monitor) Heartbeat(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.pools[name]
	if !ok {
		return
	}
	if e.info.State == PoolAlive || e.info.State == PoolSuspect {
		e.info.State = PoolAlive
		e.info.LastHeartbeat = time.Now()
	}
}

// Terminate stops a pool deliberately (scaling down, §II-B1c). Its context
// is canceled and any tasks it still owned are requeued.
func (m *Monitor) Terminate(name string) (requeued int, err error) {
	m.mu.Lock()
	e, ok := m.pools[name]
	if !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrUnknownPool, name)
	}
	cancel := e.cancel
	e.info.State = PoolTerminated
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	res, err := m.sess.RequeueRunning(context.Background(), name)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	e.info.Requeued += res.Count
	m.mu.Unlock()
	return res.Count, nil
}

// Pools returns a snapshot of all monitored pools sorted by name.
func (m *Monitor) Pools() []PoolInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PoolInfo, 0, len(m.pools))
	for _, e := range m.pools {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Alive reports whether a pool is currently considered alive.
func (m *Monitor) Alive(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.pools[name]
	return ok && e.info.State == PoolAlive
}

// Stop shuts the monitor down (pools are left untouched).
func (m *Monitor) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.done)
}

// sweep ages heartbeats: alive → suspect after one missed window, suspect →
// dead after another, with the dead pool's tasks requeued automatically.
func (m *Monitor) sweep() {
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
		}
		var toRequeue []string
		m.mu.Lock()
		now := time.Now()
		for name, e := range m.pools {
			if e.info.State != PoolAlive && e.info.State != PoolSuspect {
				continue
			}
			age := now.Sub(e.info.LastHeartbeat)
			switch {
			case age > 2*m.interval:
				e.info.State = PoolDead
				toRequeue = append(toRequeue, name)
			case age > m.interval:
				e.info.State = PoolSuspect
			}
		}
		m.mu.Unlock()
		for _, name := range toRequeue {
			if res, err := m.sess.RequeueRunning(context.Background(), name); err == nil {
				m.mu.Lock()
				if e, ok := m.pools[name]; ok {
					e.info.Requeued += res.Count
				}
				m.mu.Unlock()
			}
		}
	}
}
