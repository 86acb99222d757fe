package minisql

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refList is the one flat sorted slice the ordered index used to be: the
// model the blocked list is checked against.
type refList []ordEntry

func (r refList) search(ent ordEntry) int {
	return sort.Search(len(r), func(i int) bool { return !r[i].less(&ent) })
}

func (r *refList) add(ent ordEntry) { *r = slices.Insert(*r, r.search(ent), ent) }

func (r *refList) remove(ent ordEntry) {
	if i := r.search(ent); i < len(*r) && (*r)[i].id == ent.id {
		*r = slices.Delete(*r, i, i+1)
	}
}

// count is the number of entries over all leaves.
func (l *ordList) count() int {
	n := 0
	for _, leaf := range l.leaves {
		n += len(leaf)
	}
	return n
}

// forward reads the list front to back through its positions.
func (l *ordList) forward() []ordEntry {
	out := make([]ordEntry, 0, l.count())
	for p := (ordPos{}); p != l.end(); p = l.next(p) {
		out = append(out, *l.at(p))
	}
	return out
}

// runsDescending reads the list the way a DESC top-n does: equal-first-key
// runs from the last to the first, each run ascending.
func (l *ordList) runsDescending() []ordEntry {
	out := make([]ordEntry, 0, l.count())
	for hi := l.end(); hi != (ordPos{}); {
		v := l.at(l.prev(hi)).v
		from := l.search(func(e *ordEntry) bool { return e.v.Compare(v) < 0 })
		for p := from; p != hi; p = l.next(p) {
			out = append(out, *l.at(p))
		}
		hi = from
	}
	return out
}

func (r refList) runsDescending() []ordEntry {
	out := make([]ordEntry, 0, len(r))
	for hi := len(r); hi > 0; {
		from := hi - 1
		for from > 0 && r[from-1].v.Compare(r[hi-1].v) == 0 {
			from--
		}
		out = append(out, r[from:hi]...)
		hi = from
	}
	return out
}

func sameEntries(a, b []ordEntry) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].less(&b[i]) || b[i].less(&a[i]) {
			return fmt.Errorf("entry %d = %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestOrdListModel drives random inserts, deletes, key-changing updates and
// rolled-back batches through a table carrying a single-column and a
// composite ordered index, mirroring every index mutation into a flat sorted
// slice, and checks the blocked list against it — forward order, descending
// run order, entry count and leaf shape — while the table grows over dozens
// of leaves and drains to empty, twice.
func TestOrdListModel(t *testing.T) {
	tbl, err := newTable("q", []ColumnDef{
		{Name: "task_id", Type: TypeInteger, PrimaryKey: true},
		{Name: "prio", Type: TypeInteger},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"prio", "prio,task_id"}
	refs := map[string]*refList{}
	for _, spec := range specs {
		if err := tbl.addIndex(spec, true); err != nil {
			t.Fatal(err)
		}
		refs[spec] = &refList{}
	}

	rng := rand.New(rand.NewSource(7))
	// Half the priorities fall on four values, so runs span several leaves;
	// the rest spread out into runs of a few entries.
	prio := func() Value {
		if rng.Intn(2) == 0 {
			return Int64(int64(rng.Intn(4)))
		}
		return Int64(int64(rng.Intn(1000)))
	}
	nextTask := int64(1)
	var live []int64 // rowids

	type undo struct {
		kind undoKind
		id   int64
		row  []Value
	}
	var undoLog []undo
	mirror := func(row []Value, id int64, add bool) {
		for _, spec := range specs {
			ent := tbl.indexes[spec].entry(row, id)
			if add {
				refs[spec].add(ent)
			} else {
				refs[spec].remove(ent)
			}
		}
	}
	insert := func() {
		row := []Value{Int64(nextTask), prio()}
		nextTask++
		id := tbl.insert(row)
		mirror(row, id, true)
		live = append(live, id)
		undoLog = append(undoLog, undo{kind: undoInsert, id: id})
	}
	remove := func() {
		i := rng.Intn(len(live))
		id := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		row := tbl.delete(id)
		mirror(row, id, false)
		undoLog = append(undoLog, undo{kind: undoDelete, id: id, row: row})
	}
	// write stores vals into cols of row id the way an UPDATE does, in place
	// or (as beside a checkpoint capture) detached, mirroring the re-key.
	prioCol := []int{1}
	write := func(id int64, vals []Value) {
		mirror(tbl.row(id), id, false)
		tbl.write(id, prioCol, vals, rng.Intn(4) == 0)
		mirror(tbl.row(id), id, true)
	}
	update := func() {
		id := live[rng.Intn(len(live))]
		undoLog = append(undoLog, undo{kind: undoUpdate, id: id, row: []Value{tbl.row(id)[1]}})
		write(id, []Value{prio()})
	}
	// rollback unwinds the undo log the way Engine.rollbackToLocked does.
	rollback := func() {
		for i := len(undoLog) - 1; i >= 0; i-- {
			u := undoLog[i]
			switch u.kind {
			case undoInsert:
				mirror(tbl.delete(u.id), u.id, false)
			case undoDelete:
				tbl.insertAt(u.id, u.row)
				mirror(u.row, u.id, true)
			case undoUpdate:
				write(u.id, u.row)
			}
		}
	}

	maxLeaves := 0
	check := func(step int) {
		t.Helper()
		for _, spec := range specs {
			l, ref := &tbl.indexes[spec].sorted, *refs[spec]
			if l.count() != len(ref) || len(ref) != tbl.live {
				t.Fatalf("step %d, index %s: %d entries, reference %d, rows %d", step, spec, l.count(), len(ref), tbl.live)
			}
			if err := sameEntries(l.forward(), ref); err != nil {
				t.Fatalf("step %d, index %s, forward: %v", step, spec, err)
			}
			if err := sameEntries(l.runsDescending(), ref.runsDescending()); err != nil {
				t.Fatalf("step %d, index %s, descending runs: %v", step, spec, err)
			}
			for k, leaf := range l.leaves {
				if len(leaf) == 0 || len(leaf) > leafMax {
					t.Fatalf("step %d, index %s: leaf %d holds %d entries", step, spec, k, len(leaf))
				}
			}
			maxLeaves = max(maxLeaves, len(l.leaves))
		}
	}

	const steps = 60000
	growing, drains := true, 0
	for step := 0; step < steps; step++ {
		undoLog = undoLog[:0]
		op := func() {
			grow := 15
			if growing {
				grow = 70
			}
			switch r := rng.Intn(100); {
			case len(live) == 0 || r < grow:
				insert()
			case r < grow+15:
				update()
			default:
				remove()
			}
		}
		if rng.Intn(200) == 0 {
			// A transaction of up to 200 operations, rolled back.
			before := slices.Clone(live)
			for k := rng.Intn(200); k >= 0; k-- {
				op()
				step++
			}
			rollback()
			live = before
			check(step)
		} else {
			op()
		}
		switch {
		case growing && len(live) >= 4000:
			growing = false
			check(step)
		case !growing && len(live) == 0:
			growing = true
			drains++
			check(step)
			for _, spec := range specs {
				if n := len(tbl.indexes[spec].sorted.leaves); n != 0 {
					t.Fatalf("index %s drained to empty still holds %d leaves", spec, n)
				}
			}
		case step%1000 == 0:
			check(step)
		}
	}
	check(steps)
	if maxLeaves < 24 || drains < 2 {
		t.Fatalf("run reached %d leaves and drained %d times; want >= 24 leaves (splits) and 2 drains (merges, emptied leaves)", maxLeaves, drains)
	}
}

// TestOrdListBuildMatchesIncremental: an index built in one pass over loaded
// rows (CREATE INDEX on a filled table, snapshot restore) reads the same as
// one maintained insert by insert.
func TestOrdListBuildMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var built, grown ordList
	ents := make([]ordEntry, 5000)
	for i := range ents {
		ents[i] = ordEntry{v: Int64(int64(rng.Intn(40))), v2: Null(), id: int64(i)}
		grown.add(ents[i])
	}
	built.build(ents)
	if err := sameEntries(built.forward(), grown.forward()); err != nil {
		t.Fatal(err)
	}
}
