package minisql

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"
)

// The snapshot format: one gob message, a snapDB. Tables, index lists and
// rows are written in a fixed order, so two engines in the same logical state
// produce the same bytes — what checkpoint files, a follower's bootstrap
// frame and the byte-comparing recovery and replication tests all rely on.
// Only exported types cross the gob boundary.

type snapValue struct {
	Kind  Kind
	Int   int64
	Float float64
	Text  string
}

type snapTable struct {
	Name    string
	Cols    []ColumnDef
	Rows    [][]snapValue
	NextKey int64
	Indexes []string
	// Ordered lists the columns whose index carries the sorted side. A
	// pre-ordered-index snapshot decodes with Ordered nil and restores plain
	// hash indexes — correct, just without the top-n fast path.
	Ordered []string
}

type snapDB struct {
	Version int
	Tables  []snapTable
}

// Snapshot serializes the full database state to w. It provides the
// service-restart fault tolerance path: the EMEWS service can persist the
// task database and restore it on another resource (paper §II-B1c).
func (e *Engine) Snapshot(w io.Writer) error {
	return e.SnapshotWith(w, nil)
}

// SnapshotWith serializes the database like Snapshot. It holds the engine
// lock only to capture the state — per-table metadata and the row slice
// headers in scan order — and to invoke observe; building the wire rows and
// gob-encoding them into w happen after the lock is released, so a slow
// writer (a checkpoint file, a follower's socket) parks no commit. The
// capture is a consistent cut because stored rows are copy-on-write: INSERT
// builds a fresh slice, UPDATE copies before table.update, rollback puts the
// old slice back, and nothing writes a stored []Value in place.
//
// Commits (and so commit-hook WAL appends) happen under the engine lock, and
// observe runs under the same hold as the capture, which lets the checkpoint
// writer and the replication layer read the exact log index the snapshot
// corresponds to: no commit can land between the two. observe runs before
// the write and therefore also when the write then fails; it must be fast
// and must not call back into the engine.
func (e *Engine) SnapshotWith(w io.Writer, observe func()) error {
	e.mu.Lock()
	t0 := time.Now()
	// Tables and index lists serialize in sorted order so two engines in the
	// same logical state produce byte-identical snapshots — the property the
	// replication tests compare leader and replayed-follower state by.
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	s := snapDB{Version: 1, Tables: make([]snapTable, len(names))}
	rows := make([][][]Value, len(names))
	for i, name := range names {
		t := e.tables[name]
		st := snapTable{Name: t.name, Cols: t.cols, NextKey: t.nextKey}
		for col, ix := range t.indexes {
			if ix.ordered {
				st.Ordered = append(st.Ordered, col)
			} else {
				st.Indexes = append(st.Indexes, col)
			}
		}
		sort.Strings(st.Indexes)
		sort.Strings(st.Ordered)
		s.Tables[i] = st
		rows[i] = make([][]Value, 0, len(t.rows))
		for _, id := range t.order {
			if row, ok := t.rows[id]; ok {
				rows[i] = append(rows[i], row)
			}
		}
	}
	if observe != nil {
		observe()
	}
	held, obs := time.Since(t0), e.snapObs
	e.mu.Unlock()
	if obs != nil {
		obs(held)
	}

	for i, trows := range rows {
		srows := make([][]snapValue, len(trows))
		for j, row := range trows {
			sr := make([]snapValue, len(row))
			for k, v := range row {
				sr[k] = snapValue(v)
			}
			srows[j] = sr
		}
		s.Tables[i].Rows = srows
	}
	return gob.NewEncoder(w).Encode(&s)
}

// SnapshotLogged serializes the database like Snapshot and returns the
// commit high-water mark (LastLogged) captured under the same engine lock
// hold: the exact log index the snapshot reflects, with no commit able to
// land in between. It is the checkpoint writer's snapshot source.
func (e *Engine) SnapshotLogged(w io.Writer) (uint64, error) {
	var idx uint64
	err := e.SnapshotWith(w, func() { idx = e.lastLogged })
	return idx, err
}

// Restore replaces the database contents with a snapshot produced by
// Snapshot. The bytes come from a disk or a socket, so the decoded snapshot is
// checked before anything is built from it (a row narrower than its table
// would index out of range under the first index): on any error the engine is
// untouched, which is what lets Store.Recover fall back to the older
// checkpoint and a follower refuse a bad bootstrap instead of dying.
func (e *Engine) Restore(r io.Reader) error {
	var s snapDB
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("minisql: restore: %w", err)
	}
	if s.Version != 1 {
		return fmt.Errorf("minisql: restore: unsupported snapshot version %d", s.Version)
	}
	tables := make(map[string]*table, len(s.Tables))
	for _, st := range s.Tables {
		if _, dup := tables[st.Name]; dup {
			return fmt.Errorf("minisql: restore: duplicate table %q", st.Name)
		}
		t, err := newTable(st.Name, st.Cols) // refuses duplicate columns
		if err != nil {
			return err
		}
		t.nextKey = st.NextKey
		for _, sr := range st.Rows {
			if len(sr) != len(st.Cols) {
				return fmt.Errorf("minisql: restore: table %q: row of %d values for %d columns", st.Name, len(sr), len(st.Cols))
			}
			row := make([]Value, len(sr))
			for i, v := range sr {
				if v.Kind > KindText {
					return fmt.Errorf("minisql: restore: table %q: unknown value kind %d", st.Name, v.Kind)
				}
				row[i] = Value(v)
			}
			if t.autoCol >= 0 && row[t.autoCol].AsInt() >= st.NextKey {
				return fmt.Errorf("minisql: restore: table %q: key %d at or above NextKey %d", st.Name, row[t.autoCol].AsInt(), st.NextKey)
			}
			t.insert(row)
		}
		// Rows first, indexes after: addIndex builds each index in one pass
		// (one sort for a sorted side) instead of n incremental inserts. It
		// refuses a column the table lacks.
		for _, col := range st.Indexes {
			if err := t.addIndex(col, false); err != nil {
				return err
			}
		}
		for _, col := range st.Ordered {
			if err := t.addIndex(col, true); err != nil {
				return err
			}
		}
		tables[st.Name] = t
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables = tables
	// The restore is a wholesale schema replacement; stale plans must not
	// survive it any more than they survive a DDL statement.
	e.plans.purge()
	return nil
}
