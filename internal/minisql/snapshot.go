package minisql

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// snapshot wire format. Only exported types cross the gob boundary.

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

// SnapshotWith serializes the database like Snapshot and, after a
// successful write, invokes observe while the engine lock is still held.
// Commits (and so commit-hook WAL appends) happen under that lock, which
// lets the replication layer capture the exact log index a snapshot
// corresponds to: no commit can land between the serialization and the
// observation. observe must be fast and must not call back into the engine.
func (e *Engine) SnapshotWith(w io.Writer, observe func()) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inTx {
		return ErrInTx
	}
	var s snapDB
	s.Version = 1
	// Tables and index lists serialize in sorted order so two engines in the
	// same logical state produce byte-identical snapshots — the property the
	// replication tests compare leader and replayed-follower state by.
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := e.tables[name]
		st := snapTable{Name: t.name, Cols: t.cols, NextKey: t.nextKey}
		for _, id := range t.scanIDs() {
			row := t.rows[id]
			sr := make([]snapValue, len(row))
			for i, v := range row {
				sr[i] = snapValue(v)
			}
			st.Rows = append(st.Rows, sr)
		}
		for col, ix := range t.indexes {
			if ix.ordered {
				st.Ordered = append(st.Ordered, col)
			} else {
				st.Indexes = append(st.Indexes, col)
			}
		}
		sort.Strings(st.Indexes)
		sort.Strings(st.Ordered)
		s.Tables = append(s.Tables, st)
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return err
	}
	if observe != nil {
		observe()
	}
	return nil
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
// Snapshot.
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
		t, err := newTable(st.Name, st.Cols)
		if err != nil {
			return err
		}
		t.nextKey = st.NextKey
		for _, sr := range st.Rows {
			row := make([]Value, len(sr))
			for i, v := range sr {
				row[i] = Value(v)
			}
			t.insert(row)
		}
		// Rows first, indexes after: addIndex builds each index in one pass
		// (one sort for a sorted side) instead of n incremental inserts.
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
	if e.inTx {
		return ErrInTx
	}
	e.tables = tables
	// The restore is a wholesale schema replacement; stale plans must not
	// survive it any more than they survive a DDL statement.
	e.plans.purge()
	return nil
}
