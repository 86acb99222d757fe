package minisql

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"osprey/internal/codec"
)

// The checkpoint format: a run of disklog.go's CRC-framed records. The first
// payload is
//
//	"minisql checkpoint" | uvarint format version | uvarint table count
//
// and every later one is a table record or a rows record:
//
//	ckptTable | name | uvarint column count, per column its name, ColType byte
//	          and flag byte (1 PrimaryKey, 2 AutoInc) | varint nextKey |
//	          plain index specs | ordered index specs | uvarint row count
//	ckptRows  | rows, each a uvarint cell count and its cells
//
// Names and specs are a uvarint length and bytes, a spec list a count and
// specs, a cell appendValue's form — the bytes a log record gives a value. A
// table record is followed by rows records holding exactly the rows it
// counts. A rows record is closed before a row would take it past
// ckptChunkBytes (a larger row gets a record of its own), and each Write
// holds whole records, ckptChunkBytes or more (a leader sends each as one
// chunk): the writer holds a chunk, never the checkpoint, a reader one
// record, and a flipped byte anywhere fails its record's CRC. Tables are
// written in name order, index specs sorted and rows in scan order, so two
// engines in the same logical state write the same bytes — what checkpoint
// files, a follower's bootstrap and the byte-comparing recovery and
// replication tests rely on. Format version 1 was one encoding/gob message;
// it is refused as an unrecognised format.

const (
	ckptMagic      = "minisql checkpoint"
	ckptVersion    = 2
	ckptTable      = 1
	ckptRows       = 2
	ckptChunkBytes = 64 << 10
)

var errCheckpointFormat = errors.New("unrecognised checkpoint format: no record-format header (a gob-encoded checkpoint from an older build is not read)")

// tableCut is one table as a checkpoint holds it.
type tableCut struct {
	name           string
	cols           []ColumnDef
	nextKey        int64
	plain, ordered []string
	rows           [][]Value
}

// Snapshot serializes the full database state to w. It provides the
// service-restart fault tolerance path: the EMEWS service can persist the
// task database and restore it on another resource (paper §II-B1c).
func (e *Engine) Snapshot(w io.Writer) error {
	return e.SnapshotWith(w, nil)
}

// SnapshotWith serializes the database like Snapshot. It holds the engine
// lock only to capture the state — per-table metadata and a copy of each
// table's slots, into a buffer sized before the hold — and to invoke observe;
// encoding and writing the records happen after the lock is released, so a
// slow writer (a checkpoint file, a follower's socket) parks no commit. The
// capture is a consistent cut because no captured row slice is written while
// it is read: INSERT builds a fresh slice, DELETE and its rollback move
// slices, and UPDATE and its rollback write in place only while no capture is
// in flight — the capture counts itself from its hold until writeCheckpoint
// returns, and meanwhile a write detaches the row, giving the slot a copy.
//
// Commits (and so commit-hook WAL appends) happen under the engine lock, and
// observe runs under the same hold as the capture, which lets the checkpoint
// writer and the replication layer read the exact log index the snapshot
// corresponds to: no commit can land between the two. observe runs before
// the write and therefore also when the write then fails; it must be fast
// and must not call back into the engine.
func (e *Engine) SnapshotWith(w io.Writer, observe func()) error {
	e.mu.Lock()
	n := 0
	for _, t := range e.tables {
		n += len(t.slots)
	}
	e.mu.Unlock()
	all := make([]slot, 0, n+n/8+64) // room for commits landing in between
	e.mu.Lock()
	t0 := time.Now()
	cuts, slots := make([]tableCut, 0, len(e.tables)), make([][]slot, 0, len(e.tables))
	for _, t := range e.tables {
		c := tableCut{name: t.name, cols: t.cols, nextKey: t.nextKey}
		for spec, ix := range t.indexes {
			if ix.ordered {
				c.ordered = append(c.ordered, spec)
			} else {
				c.plain = append(c.plain, spec)
			}
		}
		all = append(all, t.slots...)
		cuts, slots = append(cuts, c), append(slots, all[len(all)-len(t.slots):])
	}
	if observe != nil {
		observe()
	}
	e.captures++
	held, obs := time.Since(t0), e.snapObs
	e.mu.Unlock()
	defer func() { e.mu.Lock(); e.captures--; e.mu.Unlock() }()
	if obs != nil {
		obs(held)
	}
	for i, c := range cuts {
		c.rows = make([][]Value, 0, len(slots[i]))
		for _, s := range slots[i] {
			if s.row != nil {
				c.rows = append(c.rows, s.row)
			}
		}
		sort.Strings(c.plain)
		sort.Strings(c.ordered)
		cuts[i] = c
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].name < cuts[j].name })
	return writeCheckpoint(w, cuts)
}

// writeCheckpoint encodes tables as a checkpoint into w.
func writeCheckpoint(w io.Writer, cuts []tableCut) error {
	var out, rec, row []byte
	var err error
	write := func() {
		if err == nil && len(out) > 0 {
			_, err = w.Write(out)
		}
		out = out[:0]
	}
	// emit frames rec as a record onto out, which goes to w once a chunk.
	emit := func() {
		if len(rec) > MaxRecordSize && err == nil {
			err = fmt.Errorf("minisql: snapshot: a %d-byte record exceeds the record bound", len(rec))
		}
		start := len(out)
		out = sealRecord(append(append(out, make([]byte, recordHeaderSize)...), rec...), start)
		if rec = rec[:0]; len(out) >= ckptChunkBytes {
			write()
		}
	}
	rec = codec.AppendUvarint(codec.AppendUvarint(append(rec, ckptMagic...), ckptVersion), uint64(len(cuts)))
	emit()
	for _, t := range cuts {
		rec = codec.AppendUvarint(codec.AppendString(append(rec, ckptTable), t.name), uint64(len(t.cols)))
		for _, col := range t.cols {
			flags := byte(0)
			if col.PrimaryKey {
				flags = 1
			}
			if col.AutoInc {
				flags |= 2
			}
			rec = append(codec.AppendString(rec, col.Name), byte(col.Type), flags)
		}
		rec = codec.AppendVarint(rec, t.nextKey)
		for _, specs := range [][]string{t.plain, t.ordered} {
			rec = codec.AppendUvarint(rec, uint64(len(specs)))
			for _, s := range specs {
				rec = codec.AppendString(rec, s)
			}
		}
		rec = codec.AppendUvarint(rec, uint64(len(t.rows)))
		emit()
		for _, r := range t.rows {
			row = codec.AppendUvarint(row[:0], uint64(len(r)))
			for _, v := range r {
				row = appendValue(row, v)
			}
			if len(rec) > 1 && len(rec)+len(row) > ckptChunkBytes {
				emit()
			}
			if len(rec) == 0 {
				rec = append(rec, ckptRows)
			}
			rec = append(rec, row...)
		}
		if len(rec) > 0 {
			emit()
		}
	}
	write()
	return err
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
// Snapshot, read from r a record at a time. The bytes come from a disk or a
// socket, so all of them are checked before the engine sees a table — every
// record's CRC, the layout, each row's width and cells, keys against nextKey,
// the row and table counts, the index specs — up to r's end: on any error
// the engine is untouched, which is what lets Store.Recover fall back to the
// older checkpoint and a follower refuse a bad or broken bootstrap.
func (e *Engine) Restore(r io.Reader) error {
	tables, err := decodeCheckpoint(r)
	if err != nil {
		return fmt.Errorf("minisql: restore: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables = tables
	// A wholesale schema replacement: every handle re-binds at its next run,
	// as after a DDL statement.
	e.epoch++
	return nil
}

func decodeCheckpoint(r io.Reader) (map[string]*table, error) {
	br := bufio.NewReader(r)
	var buf []byte
	head, off, err := nextRecord(br, &buf)
	if err != nil && err != io.EOF && !errors.Is(err, errCorrupt) {
		return nil, err // the reader failed, not the bytes
	}
	if err != nil || !bytes.HasPrefix(head, []byte(ckptMagic)) {
		return nil, errCheckpointFormat
	}
	h := codec.NewReader(head[len(ckptMagic):], errCorrupt)
	if v := h.Uvarint(); v != ckptVersion && h.Err() == nil {
		return nil, fmt.Errorf("unsupported checkpoint format version %d", v)
	}
	nTables := h.Uvarint()
	if h.Err() != nil || h.Len() != 0 {
		return nil, errors.New("malformed checkpoint header")
	}
	d := ckptDecoder{tables: make(map[string]*table)}
	for {
		payload, size, err := nextRecord(br, &buf)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = d.record(payload)
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint record at byte %d: %w", off, err)
		}
		off += size
	}
	err = d.finish()
	if err == nil && uint64(len(d.tables)) != nTables {
		err = fmt.Errorf("%d tables for a header counting %d", len(d.tables), nTables)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint record at byte %d: %w", off, err)
	}
	return d.tables, nil
}

// ckptDecoder builds tables record by record, carving every record's text
// from one arena. A table's indexes exist before its rows arrive and take
// each as it is inserted, so a restore reading as bytes arrive (a follower's
// bootstrap) never stops reading for long to build one.
type ckptDecoder struct {
	tables    map[string]*table
	t         *table // the table whose rows are arriving
	want, got uint64 // the rows its record counts, and those seen
	text      codec.Text
}

func (d *ckptDecoder) record(payload []byte) error {
	r := d.text.Reader(payload, errCorrupt)
	switch kind := r.Byte(); {
	case kind == ckptTable:
		if err := d.finish(); err != nil {
			return err
		}
		return d.table(&r)
	case kind != ckptRows:
		return fmt.Errorf("unknown record kind %d", kind)
	case d.t == nil:
		return errors.New("rows record before any table record")
	}
	for t := d.t; r.Len() > 0; d.got++ {
		if d.got == d.want {
			return fmt.Errorf("table %q: more rows than the %d its record counts", t.name, d.want)
		}
		if n := r.Uvarint(); n != uint64(len(t.cols)) && r.Err() == nil {
			return fmt.Errorf("table %q: row of %d values for %d columns", t.name, n, len(t.cols))
		}
		row := make([]Value, len(t.cols))
		for i := range row {
			row[i] = readValue(&r)
		}
		if r.Err() != nil {
			return fmt.Errorf("table %q: row %d: %w", t.name, d.got, r.Err())
		}
		if k := t.autoCol; k >= 0 && row[k].AsInt() >= t.nextKey {
			return fmt.Errorf("table %q: key %d at or above nextKey %d", t.name, row[k].AsInt(), t.nextKey)
		}
		t.insert(row)
	}
	return nil
}

func (d *ckptDecoder) table(r *codec.Reader) error {
	name := r.String()
	cols := make([]ColumnDef, r.Count(3)) // name length, type, flags
	for i := range cols {
		cols[i].Name = r.String()
		typ, flags := ColType(r.Byte()), r.Byte()
		if (typ != TypeInteger && typ != TypeText) || flags > 3 {
			r.Fail()
		}
		cols[i].Type, cols[i].PrimaryKey, cols[i].AutoInc = typ, flags&1 != 0, flags&2 != 0
	}
	nextKey := r.Varint()
	plain, ordered := readSpecs(r), readSpecs(r)
	if d.want, d.got = r.Uvarint(), 0; r.Err() != nil || r.Len() != 0 {
		return errCorrupt
	}
	if _, dup := d.tables[name]; dup {
		return fmt.Errorf("duplicate table %q", name)
	}
	t, err := newTable(name, cols) // refuses duplicate columns
	if err != nil {
		return err
	}
	for i, specs := range [][]string{plain, ordered} {
		for _, spec := range specs {
			if err := t.addIndex(spec, i == 1); err != nil { // refuses a column the table lacks
				return err
			}
		}
	}
	t.nextKey, d.t = nextKey, t
	return nil
}

func readSpecs(r *codec.Reader) []string {
	out := make([]string, r.Count(1))
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// finish completes the table whose rows were arriving, if any.
func (d *ckptDecoder) finish() error {
	t := d.t
	if t == nil {
		return nil
	}
	if d.got != d.want {
		return fmt.Errorf("table %q: %d rows, its record counts %d", t.name, d.got, d.want)
	}
	d.tables[t.name], d.t = t, nil
	return nil
}
