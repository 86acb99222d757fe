// Package watch is the node-resident event hub behind push-based dispatch.
//
// The hub tails the engine's committed statements (via the minisql commit
// observer), classifies them into task-state transitions, and fans them out
// to subscribers as ordered batches. Every batch carries the commit token of
// the WAL entry that produced it, so a subscriber that loses its connection
// can resubscribe with `since = last token seen` and replay exactly the
// transitions it missed from the hub's in-memory ring. When the ring has been
// trimmed past the requested token the subscription is "compacted": its
// stream opens with one resync marker at the hub's current token instead of a
// replay — the transitions in between are gone, and a consumer that needs
// their outcome re-reads state — and continues live from there.
//
// Delivery is at-least-once at the transport level but exactly-once at the
// token level: batches are emitted per commit, whole, and in token order, so
// a consumer that drops duplicates with `tok <= last` observes every
// transition exactly once across any number of reconnects.
//
// A delivered batch may alias the hub's ring, which every subscriber shares
// and later resume replays read: read it, never write to it or append to it
// in place. A consumer that edits events copies them first.
//
// Where it is wired. Every core.DB owns one Hub fed by its commit observer
// (core/events.go): applied statements are classified into transitions by
// exact statement shape and, on nodes with a write quorum, held by a gate
// until the quorum commit watermark covers them, so a delivered event is as
// durable as an acknowledged write and never rolls back. Session.Watch —
// implemented by core.DB, service.Client and service.ClusterClient — opens a
// subscription. In process it is the hub's own Sub; over the wire the server
// pushes its batches as unsolicited frames tagged with the subscription's
// request ID, interleaved with ordinary responses on the same connection
// (service/watch_server.go; the CLI surface is `osprey-submit watch`). A subscriber whose buffer fills is ended with
// ErrOverflow instead of stalling the hub, and resumes from its last token
// out of the ring (DefaultRing events).
//
// Followers and failover. Followers serve watches from their own hubs: the
// log orders every change, so a follower sees the same transitions at the
// same tokens. The exception is a follower that has never attached
// (replica.Node.Attached): its database is a placeholder the bootstrap
// snapshot will replace, so it refuses the subscribe transiently. A resume
// ahead of a follower's position waits briefly for replication before the
// token domain is declared foreign and resynced. ClusterClient.Watch
// resubscribes on any node from its last token, drops the overlap and
// re-bases across resync seams: one logical stream per consumer for the
// cluster's lifetime (TestWatchFailoverResume).
//
// Consumers and checks. future.Future waits on its task's transitions
// instead of polling QueryResult; pool subscribes to its work type's queued
// transitions only (Query.Queued) and blocks on them instead of spinning on
// empty pops, retrying a failed subscribe at wait.Backoff's pace for as
// long as it runs (TestPoolRetriesFailedSubscribe), so idle read load does
// not scale with worker count and its own tasks' running and complete
// transitions are never pushed to it. Chaos invariant 6
// (internal/chaos/watcher.go) holds delivery to exactly once under faults;
// BenchmarkWatchDispatch (16 subscribers, none allowed to overflow),
// BenchmarkWatchWake and BenchmarkPollWake measure the fan-out and the push
// wake-up against the poll round trip it replaced.
package watch

import (
	"context"
	"errors"
	"sync"

	"osprey/internal/obs"
)

// Transition statuses mirror core's task statuses. The hub treats them as
// opaque strings except for its task-type map, which learns a task's work
// type when it is queued and forgets it when the task completes or is
// canceled.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusComplete = "complete"
	StatusCanceled = "canceled"
)

// Event is one task-state transition, positioned in the WAL order by Token.
// Resync marks a seam instead: {Token: the hub's token, WorkType: -1,
// Resync: true}, with no task or status. The transitions before Token that
// the subscriber had not seen are lost to it; it adopts Token as its
// position and re-reads whatever state it depends on.
type Event struct {
	Token    uint64
	TaskID   int64
	WorkType int
	Status   string
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
// three forms is active: All, a single TaskID, or a single WorkType. Queued
// narrows the WorkType form to StatusQueued transitions (a pool's wake-ups,
// without its own tasks' running and complete ones); the other forms ignore
// it. Since is the resume position: only events with Token > Since are
// delivered, with the gap replayed from the ring at subscribe time. Live
// delivery and the replay filter alike; a resync marker is not filtered.
type Query struct {
	All      bool
	TaskID   int64
	WorkType int
	Queued   bool
	Since    uint64
}

func (q Query) matches(ev Event) bool {
	switch {
	case q.All:
		return true
	case q.TaskID != 0:
		return ev.TaskID == q.TaskID
	default:
		return ev.WorkType == q.WorkType && (!q.Queued || ev.Status == StatusQueued)
	}
}

// Stream is the consumer half of a subscription. Events() yields batches in
// token order until the stream ends; a batch may alias the hub's ring and be
// shared with other subscribers: read it, never write to it or append to it
// in place. After the channel closes, Err() reports why (nil for a
// consumer-initiated Close). Implementations are a hub Sub itself
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
	// describes a contiguous history). Resubscribe; expect a resync marker.
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
// (subscriptions whose backlog was served from the ring instead of a resync
// marker).
func NewHub(max int, reg *obs.Registry) *Hub {
	if max <= 0 {
		max = DefaultRing
	}
	h := &Hub{
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

// Commit ingests one commit's transitions at WAL index idx. idx == 0 (an
// unlogged engine: plain in-memory DB with no commit hook) self-assigns the
// next token so resume semantics still hold locally. Events from one commit
// share a token and are delivered to each subscriber as one batch, so a
// consumer's "last token" always covers whole commits. trs is read during the
// call only.
//
// The events are appended straight to the ring, and the batch delivered is
// the ring's own capped subslice: the ring only grows at its tail and is
// trimmed from its front, so no later commit writes over a delivered batch.
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
	start := len(h.ring)
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
			}
		case StatusComplete, StatusCanceled:
			delete(h.typeOf, tr.TaskID)
		}
		h.ring = append(h.ring, Event{Token: idx, TaskID: tr.TaskID, WorkType: wt, Status: tr.Status})
	}
	batch := h.ring[start:len(h.ring):len(h.ring)]
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

// deliverLocked hands sub the events of batch its query matches. Batches are
// read-only to consumers, so a subscriber matching the whole batch shares it
// and only a filtered subset is copied: a commit allocates one batch, not one
// per subscriber.
func (h *Hub) deliverLocked(sub *Sub, batch []Event) {
	out := batch
	for i, ev := range batch {
		if !sub.q.matches(ev) {
			out = append([]Event(nil), batch[:i]...)
			for _, ev := range batch[i+1:] {
				if sub.q.matches(ev) {
					out = append(out, ev)
				}
			}
			break
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

// Subscribe registers a subscriber and opens its stream whole: under the
// hub lock it puts the first batch into sub.C — the ring tail past q.Since
// that q matches, or one resync marker {Token: last, WorkType: -1, Resync:
// true} when the position is compacted — so no transition between that batch
// and live delivery is lost or duplicated. It returns that first batch (nil
// when C starts empty), the hub's current token, and whether the position
// was compacted. Compacted means outside the replayable history on either
// side: a since older than the ring was trimmed away, and a since NEWER than
// the hub's last token belongs to a token domain that no longer exists (the
// node rolled back via a snapshot re-bootstrap after divergence); resuming
// such a position live would silently drop every recommitted transition at
// or below it, so the marker re-bases the subscriber on the hub's token
// instead. C holds buf live batches besides a preloaded first one.
func (h *Hub) Subscribe(q Query, buf int) (sub *Sub, first []Event, last uint64, compacted bool) {
	if buf < 1 {
		buf = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	compacted = q.Since < h.floor || q.Since > h.last
	if compacted {
		first = []Event{{Token: h.last, WorkType: -1, Resync: true}}
	} else {
		for _, ev := range h.ring {
			if ev.Token > q.Since && q.matches(ev) {
				first = append(first, ev)
			}
		}
		if q.Since > 0 && h.resumes != nil {
			h.resumes.Inc()
		}
	}
	if first != nil {
		buf++
	}
	sub = &Sub{C: make(chan []Event, buf), hub: h, q: q}
	if first != nil {
		sub.C <- first
	}
	h.subs[sub] = struct{}{}
	if h.subsG != nil {
		h.subsG.Add(1)
	}
	return sub, first, h.last, compacted
}

// Reset reseeds the hub after a snapshot install: the ring no longer
// describes contiguous history, so it is emptied, the floor moves to token,
// and every live subscription is terminated with ErrReset (subscribers
// resubscribe and receive a resync marker). typeOf is replaced with the work
// types of the restored tables' queued and running tasks; Reset takes
// ownership of it.
func (h *Hub) Reset(token uint64, typeOf map[int64]int) {
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
	h.typeOf = typeOf
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
	if sub.stop != nil {
		sub.stop()
	}
	if h.subsG != nil {
		h.subsG.Add(-1)
	}
}

// Sub is a hub subscription and the in-process Stream. C yields per-commit
// batches, starting with the one Subscribe preloaded, until the hub
// terminates the subscription (overflow, reset), Close is called, or the
// context given to EndWith is done; read Err after C closes.
type Sub struct {
	C   chan []Event
	hub *Hub
	q   Query

	// guarded by hub.mu; closed and err are read only after C is closed
	closed bool
	err    error
	stop   func() bool // releases EndWith's context
}

// EndWith ends the subscription when ctx is done, as Close would; however
// the subscription ends, ctx drops its hold on it. With a context the
// context package made, no goroutine runs until ctx is done.
func (s *Sub) EndWith(ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	stop := context.AfterFunc(ctx, func() { s.Close() })
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	if s.closed {
		stop()
		return
	}
	s.stop = stop
}

// Events returns C: Sub is a Stream.
func (s *Sub) Events() <-chan []Event { return s.C }

// Close unsubscribes. Idempotent; C is closed with a nil Err.
func (s *Sub) Close() error {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.hub.closeSubLocked(s, nil)
	return nil
}

// Err reports why the subscription ended. Valid after C is closed.
func (s *Sub) Err() error {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.err
}
