package core

import (
	"fmt"
	"io"
	"time"

	"osprey/internal/minisql"
)

// OpenOptions parameterizes a durable database (Open).
type OpenOptions struct {
	// Fsync makes every acknowledged write wait for fsync, surviving
	// machine/power loss. Off (the default), writes are flushed to the OS —
	// surviving process death (kill -9) but not the machine — and never
	// block on the disk.
	Fsync bool
	// CheckpointEvery is the automatic checkpoint interval in committed log
	// entries (0: the minisql default of 10000; negative disables).
	CheckpointEvery int
	// Logf, when set, receives storage lifecycle messages.
	Logf func(format string, args ...any)
	// FS overrides the filesystem under the WAL and checkpoints (nil: the
	// real disk). Chaos tests inject fsync failures, ENOSPC, and torn
	// appends through it; production never sets it.
	FS minisql.FS
}

// durableWaitTimeout bounds how long an acknowledged write waits for its
// log entry to become durable. Generously above any sane fsync latency: on
// expiry the write is committed in memory but its durability is unknown, so
// the caller gets an error (retryable; dedup keys disambiguate).
const durableWaitTimeout = 15 * time.Second

// Open opens (or creates) a durable EMEWS task database in dir — what
// osprey.Open and osprey-service -data-dir DIR [-fsync] [-checkpoint-every N]
// run on; the in-memory NewDB remains the zero-config default. The directory
// layout, the write path and checkpoints are minisql.Store's (store.go,
// disklog.go, snapshot.go). Every committed write is appended to the on-disk
// log before its call returns; with Fsync the call also waits for its
// entry's fsync, which concurrent callers share (waitDurable).
//
// Recovery needs no live peer: restore the newest checkpoint Engine.Restore
// accepts (falling back to the previous one), run migrateSchema, replay the
// log tail through the deterministic ApplyEntry path followers use, and set
// the engine's logged index. TestCrashRecovery holds the
// contract with a real SIGKILL; TestCheckpointReplayEquivalence byte-compares
// a recovered engine against the live one after random churn. A data dir
// whose checkpoints all fail Restore and whose log no longer reaches back to
// the first entry does not open: the error names the newest checkpoint's
// refusal. That is the fate of a data dir written before checkpoints were
// records, whose gob-era checkpoints this build does not read: a replica in
// that state is recovered by wiping its data dir and re-joining the cluster,
// which bootstraps it from the leader's snapshot.
//
// In a cluster (internal/replica) a durable follower appends each shipped
// record to the same Log as received — after DecodeRecord has checked it —
// and waits for it to be durable before acking, so a quorum-acked write is
// crash-durable on a quorum. It resumes from its own recovered position,
// which the leader's log serves from its window or segments; a fresh
// follower bootstraps from a snapshot of the leader's live engine. A
// restarted leader always opens a new term (persisted
// term + 1), because crash recovery can roll its log back past entries
// followers already applied: they return through the snapshot path, so a
// full-cluster stop/start keeps all state at the cost of one re-bootstrap
// per follower. Restart a dead leader with -join pointed at a live peer, or
// it claims leadership until it sees the successor's higher term.
func Open(dir string, opt OpenOptions) (*DB, error) {
	store, err := minisql.OpenStore(dir, minisql.StoreOptions{
		Fsync:           opt.Fsync,
		CheckpointEvery: opt.CheckpointEvery,
		Logf:            opt.Logf,
		FS:              opt.FS,
	})
	if err != nil {
		return nil, fmt.Errorf("eqsql: opening store %s: %w", dir, err)
	}
	eng := minisql.NewEngine()
	restored := false
	applied, tail, err := store.Recover(func(r io.Reader, idx uint64) error {
		if err := eng.Restore(r); err != nil {
			return err
		}
		restored = true
		return nil
	})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("eqsql: recovering %s: %w", dir, err)
	}
	if err := migrateSchema(eng); err != nil {
		store.Close()
		return nil, err
	}
	for _, e := range tail {
		if err := eng.ApplyEntry(e); err != nil {
			store.Close()
			return nil, fmt.Errorf("eqsql: replaying WAL entry %d: %w", e.Index, err)
		}
	}
	eng.SetLastLogged(applied)
	store.SetSnapshotSource(eng.SnapshotLogged)

	db := newDB(eng, store)
	db.met.bindStore(store)
	if restored || applied > 0 {
		// Recovered tables may hold queued/running tasks from before this
		// boot; seed the hub and mark pre-boot history unreplayable.
		db.ResetWatch(applied)
	}
	// Standalone durable mode: the log assigns commit indexes, giving every
	// write a real commit token backed by its own on-disk log entry. The
	// replication layer replaces this hook with its own, which appends to the
	// same log on the leader.
	eng.SetCommitHook(db.log.Append)
	return db, nil
}

// Store exposes the node's durable store (nil for an in-memory DB), so the
// replication layer can persist terms and views and read its position.
func (db *DB) Store() *minisql.Store { return db.store }

// Log returns the node's commit log: over the store on an Open database, in
// memory (and unused until a replication layer hooks it) otherwise.
func (db *DB) Log() *minisql.Log { return db.log }

// WriteDurability renders the store's position and checkpoint state as
// human-readable text for /statusz; a no-op on in-memory databases.
func (db *DB) WriteDurability(w io.Writer) {
	if db.store == nil {
		return
	}
	st := db.store.Stats()
	fmt.Fprintf(w, "durable: true (fsync=%v)\n", db.store.Fsync())
	fmt.Fprintf(w, "wal: segments=%d bytes=%d range=%d..%d synced=%d\n",
		st.Log.Segments, st.Log.DiskBytes, st.Log.First, st.Log.Last, st.Log.Synced)
	fmt.Fprintf(w, "checkpoint: index=%d age=%v pending_entries=%d last_took=%v last_snapshot_lock=%v\n",
		st.CheckpointIndex, st.CheckpointAge.Round(time.Second), st.SinceCheckpoint,
		time.Duration(db.met.lastCheckpoint.Load()), time.Duration(db.met.lastSnapLock.Load()))
	if st.CheckpointErr != nil {
		fmt.Fprintf(w, "checkpoint_error: %v\n", st.CheckpointErr)
	}
}

// waitDurable blocks an acknowledged write until its log entry is durable
// under the store's fsync policy. In-memory databases and commits that
// logged nothing (token 0; an append the disk refused failed the commit)
// return immediately. The disk log's sync loop fsyncs whatever has been
// appended and starts again as soon as asked, so a lone write pays one fsync
// and the writes that arrive during it share the next.
func (db *DB) waitDurable(tok Token) error {
	if db.store == nil || tok == 0 {
		return nil
	}
	if err := db.store.WaitDurable(tok, durableWaitTimeout); err != nil {
		return fmt.Errorf("eqsql: write %d committed but not durable: %w", tok, err)
	}
	return nil
}
