// Package watch is the node-resident event hub behind push-based dispatch.
//
// The hub tails the engine's committed statements (via the minisql commit
// observer), classifies them into task-state transitions, and fans them out
// to subscribers as ordered batches. Every batch carries the commit token of
// the WAL entry that produced it, so a subscriber that loses its connection
// can resubscribe with `since = last token seen` and replay exactly the
// transitions it missed from the hub's in-memory ring. When the ring has been
// trimmed past the requested token the subscription is "compacted": the
// caller synthesizes a resync snapshot from current table state instead of a
// replay, and the stream continues live from the hub's current token.
//
// Delivery is at-least-once at the transport level but exactly-once at the
// token level: batches are emitted per commit, whole, and in token order, so
// a consumer that drops duplicates with `tok <= last` observes every
// transition exactly once across any number of reconnects.
package watch

import (
	"context"
	"errors"
	"sync"

	"osprey/internal/obs"
)

// Transition statuses mirror core's task statuses. The hub treats them as
// opaque strings except for depth accounting, which needs to know which
// transitions add to and remove from the per-type out queue.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusComplete = "complete"
	StatusCanceled = "canceled"
)

// Event is one task-state transition, positioned in the WAL order by Token.
// Depth is the out-queue depth of the event's work type after the transition
// applied (only meaningful when WorkType >= 0). Resync marks a synthesized
// catch-up event: it describes current state, not a transition, and carries
// the hub's current token rather than the token of the commit that caused it.
type Event struct {
	Token    uint64
	TaskID   int64
	WorkType int
	Status   string
	Depth    int
	Resync   bool
}

// Transition is the classifier's output for one committed statement: a task
// changed status. WorkType is -1 when the statement doesn't carry it (status
// updates name only the task); the hub resolves it from its task-type map.
type Transition struct {
	TaskID   int64
	WorkType int
	Status   string
}

// Query selects which events a subscription receives. Exactly one of the
// three forms is active: All, a single TaskID, or a single WorkType. Since is
// the resume position: only events with Token > Since are delivered, with the
// gap replayed from the ring at subscribe time.
type Query struct {
	All      bool
	TaskID   int64
	WorkType int
	Since    uint64
}

func (q Query) matches(ev Event) bool {
	switch {
	case q.All:
		return true
	case q.TaskID != 0:
		return ev.TaskID == q.TaskID
	default:
		return ev.WorkType == q.WorkType
	}
}

// Stream is the consumer half of a subscription. Events() yields batches in
// token order until the stream ends; after the channel closes, Err() reports
// why (nil for a consumer-initiated Close). Implementations wrap a hub Sub
// (in-process), a single service connection (Client), or a resubscribing
// failover loop (ClusterClient).
type Stream interface {
	Events() <-chan []Event
	Err() error
	Close() error
}

// Session is the watch half of core.Session on its own: what a consumer that
// only subscribes needs, and what a decorator forwards to. Every
// core.Session implements it.
type Session interface {
	Watch(ctx context.Context, q Query, buf int) (Stream, error)
}

// Subscription termination reasons, reported by Sub.Err / Stream.Err.
var (
	// ErrOverflow: the subscriber's buffer filled and the hub dropped the
	// subscription rather than block commit. Resubscribe with the last token.
	ErrOverflow = errors.New("watch: subscriber too slow, events dropped")
	// ErrReset: the hub was reseeded from a snapshot (the ring no longer
	// describes a contiguous history). Resubscribe; expect a resync.
	ErrReset = errors.New("watch: hub reset by snapshot install")
)

// DefaultRing is the number of events the hub retains for resume replays.
const DefaultRing = 8192

// Hub is the per-node event fan-out. One hub exists per core.DB; the engine
// commit observer feeds it under its own goroutine discipline (the engine
// lock serializes commits, so Commit calls are naturally ordered).
type Hub struct {
	mu     sync.Mutex
	ring   []Event
	floor  uint64        // resumes with since < floor must resync (ring trimmed)
	last   uint64        // newest token seen (or self-assigned)
	depth  map[int]int   // out-queue depth per work type
	typeOf map[int64]int // work type per live task, for status-only updates
	subs   map[*Sub]struct{}
	max    int

	subsG     *obs.Gauge
	delivered *obs.Counter
	dropped   *obs.Counter
	resumes   *obs.Counter
}

// NewHub creates a hub retaining up to max events (DefaultRing when max <= 0)
// and registering its metrics on reg (skipped when reg is nil):
// osprey_watch_subscriptions (live subscribers),
// osprey_watch_events_delivered_total, osprey_watch_events_dropped_total (a
// slow subscriber overflowed its buffer and was ended with ErrOverflow; its
// client resumes from its last token) and osprey_watch_resume_replays_total
// (subscriptions whose backlog was served from the ring instead of a resync).
func NewHub(max int, reg *obs.Registry) *Hub {
	if max <= 0 {
		max = DefaultRing
	}
	h := &Hub{
		depth:  make(map[int]int),
		typeOf: make(map[int64]int),
		subs:   make(map[*Sub]struct{}),
		max:    max,
	}
	if reg != nil {
		h.subsG = reg.Gauge("osprey_watch_subscriptions")
		h.delivered = reg.Counter("osprey_watch_events_delivered_total")
		h.dropped = reg.Counter("osprey_watch_events_dropped_total")
		h.resumes = reg.Counter("osprey_watch_resume_replays_total")
	}
	return h
}

// Last returns the newest token the hub has seen.
func (h *Hub) Last() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// Depth returns the tracked out-queue depth for a work type.
func (h *Hub) Depth(workType int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.depth[workType]
}

// Depths returns a copy of the per-type out-queue depths (non-zero only).
func (h *Hub) Depths() map[int]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]int, len(h.depth))
	for wt, d := range h.depth {
		if d > 0 {
			out[wt] = d
		}
	}
	return out
}

// Commit ingests one commit's transitions at WAL index idx. idx == 0 (an
// unlogged engine: plain in-memory DB with no commit hook) self-assigns the
// next token so resume semantics still hold locally. Events from one commit
// share a token and are delivered to each subscriber as one batch, so a
// consumer's "last token" always covers whole commits.
func (h *Hub) Commit(idx uint64, trs []Transition) {
	if len(trs) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx <= h.last {
		idx = h.last + 1
	}
	h.last = idx
	batch := make([]Event, 0, len(trs))
	for _, tr := range trs {
		wt := tr.WorkType
		if wt < 0 {
			if t, ok := h.typeOf[tr.TaskID]; ok {
				wt = t
			}
		}
		switch tr.Status {
		case StatusQueued:
			if wt >= 0 {
				h.typeOf[tr.TaskID] = wt
				h.depth[wt]++
			}
		case StatusRunning:
			if wt >= 0 && h.depth[wt] > 0 {
				h.depth[wt]--
			}
		case StatusCanceled:
			if wt >= 0 && h.depth[wt] > 0 {
				h.depth[wt]--
			}
			delete(h.typeOf, tr.TaskID)
		case StatusComplete:
			delete(h.typeOf, tr.TaskID)
		}
		d := 0
		if wt >= 0 {
			d = h.depth[wt]
		}
		batch = append(batch, Event{Token: idx, TaskID: tr.TaskID, WorkType: wt, Status: tr.Status, Depth: d})
	}
	h.ring = append(h.ring, batch...)
	h.trimLocked()
	for sub := range h.subs {
		h.deliverLocked(sub, batch)
	}
}

// trimLocked drops whole token groups from the front until the ring fits,
// advancing floor to the last dropped token. Dropping a partial commit would
// make resumes from inside it silently lossy, so groups go together.
func (h *Hub) trimLocked() {
	for len(h.ring) > h.max {
		tok := h.ring[0].Token
		i := 1
		for i < len(h.ring) && h.ring[i].Token == tok {
			i++
		}
		h.ring = h.ring[i:]
		h.floor = tok
	}
}

func (h *Hub) deliverLocked(sub *Sub, batch []Event) {
	out := batch[:0:0]
	for _, ev := range batch {
		if sub.q.matches(ev) {
			out = append(out, ev)
		}
	}
	if len(out) == 0 {
		return
	}
	select {
	case sub.C <- out:
		if h.delivered != nil {
			h.delivered.Add(uint64(len(out)))
		}
	default:
		// A full buffer means the subscriber stopped draining; blocking here
		// would stall every commit on the node. Kill the subscription — the
		// client resubscribes with its last token and replays the gap.
		if h.dropped != nil {
			h.dropped.Add(uint64(len(out)))
		}
		h.closeSubLocked(sub, ErrOverflow)
	}
}

// Subscribe registers a subscriber and atomically replays the ring tail past
// q.Since, so no transition between the replay and live delivery is lost or
// duplicated. It returns the replay batch, the hub's current token (the
// stream position the subscriber should adopt when the replay is empty), and
// compacted=true when q.Since falls outside the replayable history: the
// replay is nil and the caller must synthesize a resync snapshot from current
// state. Outside means either side — a since older than the ring was trimmed
// away, and a since NEWER than the hub's last token belongs to a token domain
// that no longer exists (the node rolled back via a snapshot re-bootstrap
// after divergence); resuming such a position live would silently drop every
// recommitted transition at or below it, so it resyncs instead and the
// subscriber re-bases on the resync token.
func (h *Hub) Subscribe(q Query, buf int) (sub *Sub, replay []Event, last uint64, compacted bool) {
	if buf < 1 {
		buf = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	compacted = q.Since < h.floor || q.Since > h.last
	if !compacted {
		for _, ev := range h.ring {
			if ev.Token > q.Since && q.matches(ev) {
				replay = append(replay, ev)
			}
		}
		if q.Since > 0 && h.resumes != nil {
			h.resumes.Inc()
		}
	}
	sub = &Sub{C: make(chan []Event, buf), hub: h, q: q}
	h.subs[sub] = struct{}{}
	if h.subsG != nil {
		h.subsG.Add(1)
	}
	return sub, replay, h.last, compacted
}

// Reset reseeds the hub after a snapshot install: the ring no longer
// describes contiguous history, so it is emptied, the floor moves to token,
// and every live subscription is terminated with ErrReset (subscribers
// resubscribe and receive a resync). typeOf and depth are replaced with maps
// computed from the restored tables; Reset takes ownership of both.
func (h *Hub) Reset(token uint64, typeOf map[int64]int, depth map[int]int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ring = nil
	// Matching trimLocked's convention, floor is the newest non-replayable
	// token: a resume from exactly `token` has seen everything the snapshot
	// covers and continues live; anything older must resync.
	h.floor = token
	// last adopts the snapshot position in BOTH directions: a re-bootstrap
	// after divergence moves the applied index backwards, and a hub that kept
	// a higher stale last would self-assign tokens ahead of the WAL index for
	// every commit after — poisoning subscriber-side duplicate filters on
	// failover (real events at lower tokens would be dropped as already seen).
	h.last = token
	if typeOf == nil {
		typeOf = make(map[int64]int)
	}
	if depth == nil {
		depth = make(map[int]int)
	}
	h.typeOf = typeOf
	h.depth = depth
	for sub := range h.subs {
		h.closeSubLocked(sub, ErrReset)
	}
}

func (h *Hub) closeSubLocked(sub *Sub, err error) {
	if sub.closed {
		return
	}
	sub.closed = true
	sub.err = err
	delete(h.subs, sub)
	close(sub.C)
	if h.subsG != nil {
		h.subsG.Add(-1)
	}
}

// Sub is a raw hub subscription. C yields per-commit batches until the hub
// terminates the subscription (overflow, reset) or Close is called; read Err
// after C closes. Service-layer streams wrap Sub behind the Stream interface.
type Sub struct {
	C   chan []Event
	hub *Hub
	q   Query

	// guarded by hub.mu; read only after C is closed
	closed bool
	err    error
}

// Close unsubscribes. Idempotent; C is closed with a nil Err.
func (s *Sub) Close() {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.hub.closeSubLocked(s, nil)
}

// Err reports why the subscription ended. Valid after C is closed.
func (s *Sub) Err() error {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.err
}
