package core

import (
	"context"
	"sync"

	"osprey/internal/minisql"
	"osprey/internal/watch"
)

// attachWatch creates the DB's watch hub and installs the engine commit
// observer: the one source of wake-ups. The observer runs under the engine
// lock on every applied batch — leader commits, follower replays, and
// standalone durable writes alike — so it sees transitions in exact WAL order
// with their commit tokens. It wakes at two positions: parked long-polls at
// apply (a local pop needs the row, not the quorum), hub subscribers through
// the gate, at quorum commit. A batch's transitions are classified into
// db.trs, which the engine lock guards; the hub and the gate copy what they
// keep. Subscribers read the hub's own channels (Watch): no goroutine stands
// between a commit and a stream.
func (db *DB) attachWatch() {
	db.hub = watch.NewHub(0, db.met.reg)
	db.eng.SetCommitObserver(func(idx uint64, stmts []minisql.Stmt) {
		db.trs = db.classify(db.trs[:0], stmts)
		if len(db.trs) == 0 {
			return
		}
		db.wakePolls(db.trs)
		db.publishCommit(idx, db.trs)
		if cap(db.trs) > keepTransitions {
			db.trs = nil
		}
	})
}

// keepTransitions bounds the transition buffers a DB keeps between commits:
// one a huge batch grew past it is released rather than pinned.
const keepTransitions = 1 << 14

// wakePolls wakes the long-polls a batch can satisfy: a queued transition
// put a row in the output queue (QueryTasks), a complete one put a row in the
// input queue (PopResults). A poll parks only after its pop came back empty,
// and nothing else makes an empty pop non-empty — running and canceled
// transitions only take rows out, a reprioritisation moves none.
func (db *DB) wakePolls(trs []watch.Transition) {
	var out, in bool
	for _, tr := range trs {
		switch tr.Status {
		case string(StatusQueued):
			out = true
		case string(StatusComplete):
			in = true
		}
	}
	if out {
		db.outN.Wake()
	}
	if in {
		db.inN.Wake()
	}
}

// watchGate sits between the engine's commit observer and the hub on
// replicated nodes with a synchronous write quorum. Applying an entry is not
// the same as committing it: a deposed minority leader applies (and a
// follower replays) entries that can still be rolled back by a snapshot
// re-bootstrap, and a transition pushed to a subscriber cannot be unpushed —
// the recommit under the new leadership would then arrive as a duplicate the
// client's token filter cannot recognize (new domain, new token). The gate
// buffers classified transitions at apply time and releases them to the hub
// only once the cluster's quorum commit watermark covers them, so everything
// a subscriber ever sees is as durable as an acknowledged write and the
// exactly-once delivery contract holds across rollbacks. Ungated (standalone
// DBs and asynchronous replication, where acknowledged writes carry no
// quorum promise either), commits flow straight through.
type watchGate struct {
	mu    sync.Mutex
	gated bool
	mark  uint64 // publish watermark: commits at or below it are released
	// The applied-but-unreleased commits, in ascending index order (the
	// observer runs under the engine lock): commits[k] holds the next n of
	// trs, which keeps every pending transition back to back.
	commits []pendingCommit
	trs     []watch.Transition
}

// pendingCommit marks one held commit's transitions in watchGate.trs.
type pendingCommit struct {
	idx uint64
	n   int
}

// publishCommit routes one classified commit through the gate. Commits
// already covered by the watermark — and every commit on an ungated DB —
// publish immediately; the rest are copied into the gate to wait for
// AdvanceWatch.
func (db *DB) publishCommit(idx uint64, trs []watch.Transition) {
	g := &db.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gated && idx > g.mark {
		g.commits = append(g.commits, pendingCommit{idx: idx, n: len(trs)})
		g.trs = append(g.trs, trs...)
		return
	}
	db.hub.Commit(idx, trs)
}

// GateWatch enables quorum gating. Called once by the replication layer on
// nodes with a synchronous write quorum, before any subscriber attaches.
func (db *DB) GateWatch() {
	db.gate.mu.Lock()
	db.gate.gated = true
	db.gate.mu.Unlock()
}

// AdvanceWatch lifts the publish watermark to mark (never backwards) and
// releases the buffered commits it now covers, in index order. The leader
// calls it as follower acks advance its quorum watermark; followers
// call it with the watermark the leader ships in its frames. A mark ahead of
// the local applied index is fine: it releases nothing yet, and later
// applies at or below it publish immediately.
func (db *DB) AdvanceWatch(mark uint64) {
	g := &db.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.gated || mark <= g.mark {
		return
	}
	g.mark = mark
	k, off := 0, 0
	for ; k < len(g.commits) && g.commits[k].idx <= mark; k++ {
		c := g.commits[k]
		db.hub.Commit(c.idx, g.trs[off:off+c.n])
		off += c.n
	}
	if k == 0 {
		return
	}
	// The hub copied what it released: compact what is still held in place.
	g.commits = g.commits[:copy(g.commits, g.commits[k:])]
	g.trs = g.trs[:copy(g.trs, g.trs[off:])]
	if len(g.commits) == 0 && cap(g.trs) > keepTransitions {
		g.commits, g.trs = nil, nil
	}
}

// WatchHub exposes the DB's event hub to the service layer.
func (db *DB) WatchHub() *watch.Hub { return db.hub }

// classify extracts task-state transitions from one committed statement
// batch. A statement is recognised by the handle that ran it (on a follower,
// the pinned handle ApplyEntry resolved its text to), not by its text; every
// state-changing code path runs one of the transition statements:
//
//   - outQInsert marks a task queued (both fresh submits and requeues — the
//     requeue's companion eq_tasks UPDATE is deliberately ignored so one
//     requeue yields one transition);
//   - popTasksUpd with a "running" status argument marks each popped id
//     running;
//   - reportUpd with "complete" marks the task complete;
//   - cancelUpd with "canceled" marks it canceled.
//
// Everything else (tags, priorities, schema, experiment rows) is not a
// transition and classifies to nothing. The transitions are appended to out.
func (db *DB) classify(out []watch.Transition, stmts []minisql.Stmt) []watch.Transition {
	for _, s := range stmts {
		switch s.Prepared() {
		case db.stmts[outQInsert]:
			if len(s.Args) >= 2 {
				out = append(out, watch.Transition{
					TaskID:   s.Args[0].AsInt(),
					WorkType: int(s.Args[1].AsInt()),
					Status:   string(StatusQueued),
				})
			}
		case db.stmts[popTasksUpd]:
			if len(s.Args) >= 4 && s.Args[0].AsText() == string(StatusRunning) {
				for _, a := range s.Args[3:] {
					out = append(out, watch.Transition{
						TaskID:   a.AsInt(),
						WorkType: -1,
						Status:   string(StatusRunning),
					})
				}
			}
		case db.stmts[reportUpd]:
			if len(s.Args) >= 4 && s.Args[0].AsText() == string(StatusComplete) {
				out = append(out, watch.Transition{
					TaskID:   s.Args[3].AsInt(),
					WorkType: -1,
					Status:   string(StatusComplete),
				})
			}
		case db.stmts[cancelUpd]:
			if len(s.Args) >= 3 && s.Args[0].AsText() == string(StatusCanceled) {
				out = append(out, watch.Transition{
					TaskID:   s.Args[2].AsInt(),
					WorkType: -1,
					Status:   string(StatusCanceled),
				})
			}
		}
	}
	return out
}

// ResetWatch reseeds the hub's task-type map from current table state and
// repositions its resume floor at token: everything at or before token is
// treated as unreplayable history (a subscriber resuming there gets a resync
// marker), everything after flows live. Called after snapshot restores — in
// place (Restore) and by the replication layer once it has corrected the
// applied index after a bootstrap.
func (db *DB) ResetWatch(token Token) {
	if db.hub == nil {
		return
	}
	// Queued and running tasks keep their type mapping so their later
	// transitions (which carry only the task id) still resolve a work type.
	typeOf := make(map[int64]int)
	note := func(row []minisql.Value) error {
		typeOf[row[0].AsInt()] = int(row[1].AsInt())
		return nil
	}
	_ = db.read(db.stmts[outQTypes], nil, note)
	_ = db.read(db.stmts[runningTypes], []minisql.Value{minisql.Text(string(StatusRunning))}, note)
	// A reset replaces history wholesale, so anything the gate was holding
	// belongs to the discarded domain: drop it and re-base the watermark at
	// the reset token (downwards included — this is the one path where the
	// mark may regress, mirroring the applied index).
	db.gate.mu.Lock()
	db.gate.commits, db.gate.trs = nil, nil
	db.gate.mark = token
	db.gate.mu.Unlock()
	db.hub.Reset(token, typeOf)
}

// Watch implements Session in process: the stream is the hub subscription
// itself, opened with the replay past q.Since — or with one resync marker at
// the hub's token when q.Since is outside its replayable history — and then
// per-commit batches in token order. It ends when ctx is done, Close is
// called, or the hub drops it (overflow or snapshot reset — resubscribe with
// the last token seen). It starts no goroutine.
func (db *DB) Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if buf < 1 {
		buf = 16
	}
	sub, _, _, _ := db.hub.Subscribe(q, buf)
	sub.EndWith(ctx)
	return sub, nil
}
