package minisql

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// table is the in-memory storage for one relation. Rows are keyed by a
// monotonically increasing rowid and kept in slots in insertion order, which
// scans follow so that unordered SELECTs are deterministic. A deleted row
// leaves its slot empty (nil) until compaction, and its rowid in pos, so a
// rollback revives it in place.
type table struct {
	name    string
	cols    []ColumnDef
	colIdx  map[string]int
	slots   []slot
	pos     map[int64]int // rowid -> its slot
	live    int           // slots holding a row
	nextRow int64
	autoCol int // index of AUTOINCREMENT column, or -1
	nextKey int64
	indexes map[string]*hashIndex // keyed by column name
}

// slot is one row of a table and its rowid; row is nil once deleted.
type slot struct {
	id  int64
	row []Value
}

// row returns the live row with rowid id, or nil.
func (t *table) row(id int64) []Value {
	if p, ok := t.pos[id]; ok {
		return t.slots[p].row
	}
	return nil
}

// hashIndex is an index over one key column, or over a column pair. It keeps
// only the sides a query can read. A single-column index has the hash side, m:
// key value -> the rowids holding it, which serves `col = const`, IN and
// COUNT probes in O(1). An ordered index has the sorted side: the entries
// ascending by (value, [value2,] rowid), which gives ORDER BY <col> ... LIMIT n
// its top-n in place of a full-table scan-and-sort. A composite (two-column)
// index has no hash side — every probe finds its index by one column name, so
// nothing could read a pair key — and exists for its sorted side, which bounds
// the equal-key run length of the ordered scan by the (col1, col2) pair
// cardinality: the fix for queues whose first key is uniform (every task at
// one priority) degenerating into one whole-queue run.
type hashIndex struct {
	cols    []int             // key column positions; 1 or 2 entries
	m       map[hashKey]idSet // nil for a composite index
	ordered bool
	sorted  ordList // ascending by (v, v2, rowid); empty unless ordered
}

// idSet is the rowids under one hash key. Most keys are unique (a PRIMARY
// KEY, a dedup key), so the first id is held inline and a map grows only from
// the second; once grown, more holds every id of the set. A set in a
// hashIndex is never empty.
type idSet struct {
	one  int64
	more map[int64]struct{}
}

func (s idSet) len() int {
	if s.more != nil {
		return len(s.more)
	}
	return 1
}

// any returns one id of the set.
func (s idSet) any() int64 {
	for id := range s.more {
		return id
	}
	return s.one
}

// ordEntry is one element of an ordered index: the key column value(s) and
// the rowid holding them, kept sorted ascending with rowid as the final
// tiebreak so equal-value runs enumerate in deterministic insertion-id order.
// v2 is Null() for single-column indexes, which compares equal everywhere and
// leaves the single-column ordering untouched.
type ordEntry struct {
	v  Value
	v2 Value
	id int64
}

func (a *ordEntry) less(b *ordEntry) bool {
	if c := a.v.Compare(b.v); c != 0 {
		return c < 0
	}
	if c := a.v2.Compare(b.v2); c != 0 {
		return c < 0
	}
	return a.id < b.id
}

// leafMax bounds the entries of one ordList leaf, and with it the entries a
// single insert or delete shifts.
const leafMax = 256

// ordList is the sorted side of an ordered index: a blocked sorted list. The
// entries live in leaves of 1..leafMax entries, each leaf sorted and the
// leaves in order, so their concatenation is the whole (v, v2, rowid) order.
// A mutation binary-searches the leaf directory and then one leaf, and shifts
// entries inside that leaf only — its cost does not grow with the queue's
// depth the way one flat sorted slice's did. Leaves split in half when they
// overflow and merge with a neighbour when the pair fits in half a leaf.
type ordList struct {
	leaves [][]ordEntry
}

// ordPos addresses one entry of an ordList; end() is the position after the
// last entry.
type ordPos struct{ leaf, off int }

func (l *ordList) end() ordPos { return ordPos{leaf: len(l.leaves)} }

func (l *ordList) at(p ordPos) *ordEntry { return &l.leaves[p.leaf][p.off] }

func (l *ordList) next(p ordPos) ordPos {
	if p.off++; p.off == len(l.leaves[p.leaf]) {
		return ordPos{leaf: p.leaf + 1}
	}
	return p
}

func (l *ordList) prev(p ordPos) ordPos {
	if p.off == 0 {
		return ordPos{p.leaf - 1, len(l.leaves[p.leaf-1]) - 1}
	}
	p.off--
	return p
}

// search returns the first position whose entry before rejects, or end().
// before must hold for a prefix of the list and for nothing after it.
func (l *ordList) search(before func(*ordEntry) bool) ordPos {
	k := sort.Search(len(l.leaves), func(k int) bool {
		leaf := l.leaves[k]
		return !before(&leaf[len(leaf)-1])
	})
	if k == len(l.leaves) {
		return l.end()
	}
	leaf := l.leaves[k]
	return ordPos{k, sort.Search(len(leaf), func(i int) bool { return !before(&leaf[i]) })}
}

func (l *ordList) add(ent ordEntry) {
	p := l.search(func(e *ordEntry) bool { return e.less(&ent) })
	switch last := len(l.leaves) - 1; {
	case last < 0:
		l.leaves = [][]ordEntry{nil} // p is the first position of this first leaf
	case p == l.end():
		p = ordPos{last, len(l.leaves[last])} // past every entry: grow the last leaf
	}
	leaf := slices.Insert(l.leaves[p.leaf], p.off, ent)
	if len(leaf) > leafMax {
		right := slices.Clone(leaf[len(leaf)/2:])
		leaf = slices.Delete(leaf, len(leaf)/2, len(leaf))
		l.leaves = slices.Insert(l.leaves, p.leaf+1, right)
	}
	l.leaves[p.leaf] = leaf
}

func (l *ordList) remove(ent ordEntry) {
	p := l.search(func(e *ordEntry) bool { return e.less(&ent) })
	if p == l.end() || l.at(p).id != ent.id {
		return
	}
	k := p.leaf
	leaf := slices.Delete(l.leaves[k], p.off, p.off+1)
	l.leaves[k] = leaf
	switch {
	case len(leaf) == 0:
		l.leaves = slices.Delete(l.leaves, k, k+1)
	case k+1 < len(l.leaves) && len(leaf)+len(l.leaves[k+1]) <= leafMax/2:
		l.leaves[k] = append(leaf, l.leaves[k+1]...)
		l.leaves = slices.Delete(l.leaves, k+1, k+2)
	case k > 0 && len(l.leaves[k-1])+len(leaf) <= leafMax/2:
		l.leaves[k-1] = append(l.leaves[k-1], leaf...)
		l.leaves = slices.Delete(l.leaves, k, k+1)
	}
}

// build replaces the contents with ents, which it sorts in place. Leaves
// start half full, the state splits leave them in.
func (l *ordList) build(ents []ordEntry) {
	sort.Slice(ents, func(i, j int) bool { return ents[i].less(&ents[j]) })
	l.leaves = make([][]ordEntry, 0, len(ents)/(leafMax/2)+1)
	for len(ents) > 0 {
		k := min(len(ents), leafMax/2)
		l.leaves = append(l.leaves, slices.Clone(ents[:k]))
		ents = ents[k:]
	}
}

// entry builds the index entry for a row.
func (ix *hashIndex) entry(row []Value, id int64) ordEntry {
	ent := ordEntry{v: row[ix.cols[0]], v2: Null(), id: id}
	if len(ix.cols) > 1 {
		ent.v2 = row[ix.cols[1]]
	}
	return ent
}

func newTable(name string, cols []ColumnDef) (*table, error) {
	t := &table{
		name:    name,
		cols:    cols,
		colIdx:  make(map[string]int, len(cols)),
		pos:     make(map[int64]int),
		autoCol: -1,
		nextKey: 1,
		indexes: make(map[string]*hashIndex),
	}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("minisql: duplicate column %q in table %q", c.Name, name)
		}
		t.colIdx[c.Name] = i
		if c.AutoInc {
			if t.autoCol >= 0 {
				return nil, fmt.Errorf("minisql: table %q has multiple AUTOINCREMENT columns", name)
			}
			if c.Type != TypeInteger {
				return nil, fmt.Errorf("minisql: AUTOINCREMENT column %q must be INTEGER", c.Name)
			}
			t.autoCol = i
		}
		// Primary keys get an index automatically.
		if c.PrimaryKey {
			t.indexes[c.Name] = &hashIndex{cols: []int{i}, m: make(map[hashKey]idSet)}
		}
	}
	return t, nil
}

// maxTableIndexes bounds the indexes one table may carry, and with them the
// index entries a checkpoint's bytes can make Restore build per stored row.
const maxTableIndexes = 16

// indexSpec is the canonical map key for an index: its column names joined
// with commas ("priority" / "priority,task_id").
func indexSpec(cols []string) string { return strings.Join(cols, ",") }

// addIndex creates (or upgrades) the index over the comma-joined column spec.
func (t *table) addIndex(spec string, ordered bool) error {
	cols := strings.Split(spec, ",")
	if len(cols) > 2 {
		return fmt.Errorf("minisql: composite indexes support at most 2 columns, got %d", len(cols))
	}
	pos := make([]int, len(cols))
	for i, col := range cols {
		ci, ok := t.colIdx[col]
		if !ok {
			return fmt.Errorf("minisql: no column %q in table %q", col, t.name)
		}
		pos[i] = ci
	}
	if ix, exists := t.indexes[spec]; exists {
		if ordered && !ix.ordered {
			// Upgrade in place: only the sorted side needs building.
			ix.ordered = true
			ix.buildSorted(t)
		}
		return nil
	}
	if len(t.indexes) >= maxTableIndexes {
		return fmt.Errorf("minisql: table %q already has %d indexes, the most a table may carry", t.name, maxTableIndexes)
	}
	idx := &hashIndex{cols: pos, ordered: ordered}
	if len(pos) == 1 {
		idx.m = make(map[hashKey]idSet)
		for _, s := range t.slots {
			if s.row != nil {
				idx.addHash(s.row[pos[0]], s.id)
			}
		}
	}
	if ordered {
		idx.buildSorted(t)
	}
	t.indexes[spec] = idx
	return nil
}

// buildSorted (re)derives the sorted side from the live rows.
func (ix *hashIndex) buildSorted(t *table) {
	ents := make([]ordEntry, 0, t.live)
	for _, s := range t.slots {
		if s.row != nil {
			ents = append(ents, ix.entry(s.row, s.id))
		}
	}
	ix.sorted.build(ents)
}

func (ix *hashIndex) add(ent ordEntry) {
	ix.addHash(ent.v, ent.id)
	if ix.ordered {
		ix.sorted.add(ent)
	}
}

func (ix *hashIndex) addHash(v Value, id int64) {
	if ix.m == nil {
		return
	}
	k := v.key()
	set, ok := ix.m[k]
	switch {
	case !ok:
		ix.m[k] = idSet{one: id}
	case set.more != nil:
		set.more[id] = struct{}{}
	case set.one != id:
		ix.m[k] = idSet{more: map[int64]struct{}{set.one: {}, id: {}}}
	}
}

func (ix *hashIndex) remove(ent ordEntry) {
	if ix.m != nil {
		k := ent.v.key()
		set, ok := ix.m[k]
		switch {
		case !ok:
		case set.more != nil:
			delete(set.more, ent.id)
			if len(set.more) == 0 {
				delete(ix.m, k)
			}
		case set.one == ent.id:
			delete(ix.m, k)
		}
	}
	if ix.ordered {
		ix.sorted.remove(ent)
	}
}

// lookup appends the rowids holding value v to dst, those in ascending order.
func (ix *hashIndex) lookup(dst []int64, v Value) []int64 {
	set, ok := ix.m[v.key()]
	switch {
	case !ok:
		return dst
	case set.more == nil:
		return append(dst, set.one)
	}
	dst = slices.Grow(dst, len(set.more))
	start := len(dst)
	for id := range set.more {
		dst = append(dst, id)
	}
	slices.Sort(dst[start:])
	return dst
}

// count reports how many rowids hold value v.
func (ix *hashIndex) count(v Value) int {
	if set, ok := ix.m[v.key()]; ok {
		return set.len()
	}
	return 0
}

// insert stores a full-width row and maintains indexes. The caller has
// already applied column defaults and autoincrement.
func (t *table) insert(row []Value) int64 {
	id := t.nextRow
	t.nextRow++
	t.insertAt(id, row)
	return id
}

// insertAt stores a row under rowid id: a new one, or (transaction rollback)
// a deleted one, revived in its slot when compaction has not dropped it.
func (t *table) insertAt(id int64, row []Value) {
	if p, ok := t.pos[id]; ok {
		t.slots[p].row = row
	} else {
		t.pos[id] = len(t.slots)
		t.slots = append(t.slots, slot{id, row})
	}
	t.live++
	if id >= t.nextRow {
		t.nextRow = id + 1
	}
	for _, ix := range t.indexes {
		ix.add(ix.entry(row, id))
	}
}

func (t *table) delete(id int64) []Value {
	row := t.row(id)
	if row == nil {
		return nil
	}
	for _, ix := range t.indexes {
		ix.remove(ix.entry(row, id))
	}
	t.slots[t.pos[id]].row = nil
	t.live--
	t.maybeCompact()
	return row
}

// keyChanged reports whether writing vals into row's columns cols changes
// the index's key.
func (ix *hashIndex) keyChanged(row []Value, cols []int, vals []Value) bool {
	for i, c := range cols {
		if slices.Contains(ix.cols, c) && (row[c].Compare(vals[i]) != 0 || row[c].Kind != vals[i].Kind) {
			return true
		}
	}
	return false
}

// write stores vals into row id's columns cols in place, re-keying each index
// whose key that changes. With detach the write goes to a copy that replaces
// the slot's slice: a checkpoint capture holding the old slice keeps reading
// the row as it took it.
func (t *table) write(id int64, cols []int, vals []Value, detach bool) {
	row := t.row(id)
	if detach {
		row = slices.Clone(row)
		t.slots[t.pos[id]].row = row
	}
	rekey := make([]*hashIndex, 0, maxTableIndexes)
	for _, ix := range t.indexes {
		if ix.keyChanged(row, cols, vals) {
			ix.remove(ix.entry(row, id)) // under the old key, before the write
			rekey = append(rekey, ix)
		}
	}
	for i, c := range cols {
		row[c] = vals[i]
	}
	for _, ix := range rekey {
		ix.add(ix.entry(row, id))
	}
}

// maybeCompact drops the empty slots when they are most of them, keeping
// full-table scans O(live rows) for queue-like churn workloads.
func (t *table) maybeCompact() {
	dead := len(t.slots) - t.live
	if dead < 1024 || dead*2 < len(t.slots) {
		return
	}
	live := t.slots[:0]
	for _, s := range t.slots {
		if s.row == nil {
			delete(t.pos, s.id)
			continue
		}
		t.pos[s.id] = len(live)
		live = append(live, s)
	}
	clear(t.slots[len(live):])
	t.slots = live
}

// scanIDs appends all live rowids to ids in insertion order.
func (t *table) scanIDs(ids []int64) []int64 {
	ids = slices.Grow(ids, t.live)
	for _, s := range t.slots {
		if s.row != nil {
			ids = append(ids, s.id)
		}
	}
	return ids
}

// coerce converts v to the declared column type where possible; TEXT columns
// keep integers' text form, INTEGER columns parse text.
func coerce(v Value, typ ColType) Value {
	if v.Kind == KindNull {
		return v
	}
	switch typ {
	case TypeInteger:
		if v.Kind != KindInt {
			return Int64(v.AsInt())
		}
	case TypeText:
		if v.Kind != KindText {
			return Text(v.AsText())
		}
	}
	return v
}
