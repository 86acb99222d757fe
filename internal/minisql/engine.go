package minisql

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrNoSuchTable is returned by statements naming a table the engine lacks.
var ErrNoSuchTable = errors.New("minisql: no such table")

// Result is the outcome of a write (Tx.Run): its affected-row count and
// AUTOINCREMENT key. A read streams its rows instead (Tx.Query).
type Result struct {
	RowsAffected int
	LastInsertID int64
}

// Engine is an embedded relational database. All methods are safe for
// concurrent use; statements execute under a single engine-wide writer lock,
// mirroring the paper's single resource-local database instance.
//
// Every write is a transaction that opens and closes within one hold of that
// lock: a TxLogged closure, or a shipped entry (ApplyEntry). No transaction is
// ever left open between calls.
//
// Every statement is compiled once: Prepare returns a handle that a
// transaction runs with Value arguments (Tx.Run, Tx.RunRows, Tx.Query,
// Tx.Count). ApplyEntry alone resolves statements by text, through the
// engine's text index, and runs them through the same executor with the same
// checks.
type Engine struct {
	mu     sync.Mutex
	tables map[string]*table
	// epoch is the schema epoch, bumped by CREATE/DROP TABLE, CREATE INDEX and
	// Restore: a handle bound in an older epoch re-binds at its next run.
	epoch uint64
	tx    Tx // what TxLogged hands its closure; one transaction holds mu at a time

	undo     []undoOp // the open transaction's undo log; empty between calls
	undoVals []Value  // the old values its undoUpdate entries hold, back to back
	captures int      // checkpoint captures in flight (SnapshotWith): writes detach rows

	hook       CommitHook     // observes committed mutating statements (wal.go)
	observer   CommitObserver // passive tap on every applied batch (wal.go)
	applying   bool           // true while replaying a shipped entry
	applyHits  []int          // a replayed set-based write's per-row counts, reused
	pending    []Stmt         // mutating statements awaiting commit
	pendArgs   []Value        // the prepared writes' arguments, back to back: their Stmt.Args
	lastLogged uint64         // highest log index the hook has assigned

	plans *planCache // compiled statements by SQL text (plancache.go)

	// Slow-query log (obs.go): statements at or over slowNanos are reported
	// to slowFn. Both are read and written under mu; zero/nil means off.
	slowNanos int64
	slowFn    func(sql string, d time.Duration)
	// snapObs receives how long each snapshot held mu (obs.go).
	snapObs func(held time.Duration)
}

type undoKind uint8

const (
	undoInsert undoKind = iota // undone by deleting rowid (and restoring nextKey)
	undoDelete                 // undone by re-inserting row
	undoUpdate                 // undone by writing the SET columns' old values back
)

type undoOp struct {
	kind    undoKind
	t       *table
	rowid   int64
	row     []Value // undoDelete: the row; undoUpdate: the old values of cols, in undoVals
	cols    []int   // undoUpdate: the SET column positions (the bound plan's, read-only)
	nextKey int64   // undoInsert: the table's nextKey before the insert
}

// NewEngine returns an empty database.
func NewEngine() *Engine {
	e := &Engine{tables: make(map[string]*table), plans: newPlanCache(), epoch: 1}
	e.tx.e = e
	return e
}

// TxLogged runs fn inside a transaction: fn's statements are committed if fn
// returns nil and rolled back otherwise. It returns the commit token of the
// transaction: the log index the commit hook assigned to the transaction's
// WAL entry, 0 when the transaction contained no mutating statements or no
// hook is installed. A transaction of reads alone logs nothing, so it is also
// how several reads see one state. The engine lock is held throughout, so fn
// runs statements through the passed Tx and calls no Engine method that
// takes the lock (Prepare does not).
func (e *Engine) TxLogged(fn func(tx *Tx) error) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := fn(&e.tx); err != nil {
		e.rollbackLocked()
		return 0, err
	}
	return e.flushPendingLocked()
}

// LastLogged returns the highest log index the commit hook has assigned so
// far: the engine-local commit high-water mark. It is the conservative token
// for operations that turn out to be no-ops (e.g. a deduplicated re-submit):
// whatever entry the original operation produced is covered by it.
func (e *Engine) LastLogged() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastLogged
}

// Tx is a transaction handle passed to Engine.TxLogged callbacks.
type Tx struct{ e *Engine }

// Run executes a prepared write (or DDL) with args and returns its
// RowsAffected and LastInsertID. args is read during the call only.
func (tx *Tx) Run(h *Prepared, args ...Value) (Result, error) {
	spreadN, err := tx.start(h, len(args))
	if err != nil {
		return Result{}, err
	}
	if h.query {
		return Result{}, fmt.Errorf("minisql: Run executes writes; read %q with Query", compactSQL(h.sql))
	}
	n, id, err := tx.e.writeLocked(h, args, spreadN, nil)
	return Result{RowsAffected: n, LastInsertID: id}, err
}

// RunRows executes a prepared UPDATE once per argument row: args holds
// len(args)/nparams rows back to back, each bound to the statement's
// parameters in turn and seeing the rows before it applied, exactly as that
// many Run calls would. It commits as one logged Stmt carrying every row,
// which ApplyEntry replays row by row through the same executor. The set is
// atomic: an error in any row undoes the rows before it and logs nothing. It
// returns each argument row's rows-affected count. args is read during the
// call only.
func (tx *Tx) RunRows(h *Prepared, args []Value) ([]int, error) {
	if _, err := tx.start(h, -1); err != nil {
		return nil, err
	}
	rows, err := h.argRows(len(args))
	if err != nil {
		return nil, err
	}
	hits := make([]int, rows)
	if _, _, err := tx.e.writeLocked(h, args, 0, hits); err != nil {
		return nil, err
	}
	return hits, nil
}

// writeLocked runs a write on the engine's copy of args in pendArgs, so the
// caller's slice never outlives the call: the copy is what the pending Stmt
// keeps until the commit, or is cut again when nothing records it.
func (e *Engine) writeLocked(h *Prepared, args []Value, spreadN int, hits []int) (int, int64, error) {
	lo := len(e.pendArgs)
	e.pendArgs = append(e.pendArgs, args...)
	hi := len(e.pendArgs)
	n, id, err := e.execLocked(h, e.pendArgs[lo:hi:hi], spreadN, hits, nil)
	if err != nil || !e.recording(h) {
		clear(e.pendArgs[lo:])
		e.pendArgs = e.pendArgs[:lo]
	}
	return n, id, err
}

// Query runs a prepared SELECT with args and calls fn with each result row,
// in result order. The row is scratch, valid only during the call; fn must not
// use the transaction. An error from fn ends the query and is returned. args
// is read during the call only.
func (tx *Tx) Query(h *Prepared, args []Value, fn func(row []Value) error) error {
	if !h.query || h.count {
		return fmt.Errorf("minisql: Query streams a SELECT's rows; %q is not one", compactSQL(h.sql))
	}
	_, err := tx.read(h, args, fn)
	return err
}

// Count runs a prepared SELECT COUNT(*) with args and returns the count.
func (tx *Tx) Count(h *Prepared, args ...Value) (int, error) {
	if !h.count {
		return 0, fmt.Errorf("minisql: Count answers a SELECT COUNT(*); %q is not one", compactSQL(h.sql))
	}
	return tx.read(h, args, nil)
}

// read runs a read on a copy of its arguments, so the caller's slice never
// outlives the call.
func (tx *Tx) read(h *Prepared, args []Value, fn func(row []Value) error) (int, error) {
	spreadN, err := tx.start(h, len(args))
	if err != nil {
		return 0, err
	}
	h.args = append(h.args[:0], args...)
	n, _, err := tx.e.execLocked(h, h.args, spreadN, nil, fn)
	clear(h.args)
	return n, err
}

// start checks one execution of h on this transaction's engine and counts it
// as a reuse of a compiled statement. With nargs >= 0 it also checks the
// argument count and returns the width of the spread; RunRows passes -1 and
// checks whole argument rows instead.
func (tx *Tx) start(h *Prepared, nargs int) (int, error) {
	if h.e != tx.e {
		return 0, fmt.Errorf("minisql: statement prepared on another engine (in %q)", compactSQL(h.sql))
	}
	tx.e.plans.hits.Add(1)
	if nargs < 0 {
		return 0, nil
	}
	return h.spreadWidth(nargs)
}

// execLocked executes h — the one executor every path reaches — and, on
// success, records a mutating statement for the commit hook (flushed when
// TxLogged commits). Each statement is atomic: a mid-statement
// failure (e.g. a bad row in a multi-row INSERT) unwinds just that
// statement's effects. Failed statements never reach the commit hook, so
// without the unwind a caller that swallows the error and commits would
// persist rows the statement log never saw — silently diverging replicas.
//
// A non-nil hits makes the execution set-based: args holds len(hits) argument
// rows and hits receives each row's rows-affected count (execUpdate). A
// SELECT streams its rows to fn. n is the rows affected, streamed or counted.
func (e *Engine) execLocked(h *Prepared, args []Value, spreadN int, hits []int, fn func([]Value) error) (n int, lastID int64, err error) {
	mark := len(e.undo)
	var t0 time.Time
	if e.slowNanos > 0 {
		t0 = time.Now()
	}
	n, lastID, err = e.execStmtLocked(h, args, spreadN, hits, fn)
	if e.slowNanos > 0 && e.slowFn != nil {
		if d := time.Since(t0); int64(d) >= e.slowNanos {
			e.slowFn(h.sql, d)
		}
	}
	if err != nil {
		e.rollbackToLocked(mark)
		return 0, 0, err
	}
	if e.recording(h) {
		e.pending = append(e.pending, Stmt{SQL: h.sql, Args: args, prep: h})
	}
	return n, lastID, nil
}

// recording reports whether a successful execution of h is kept for the
// commit hook and observer.
func (e *Engine) recording(h *Prepared) bool {
	return (e.hook != nil || e.observer != nil) && !e.applying && h.mutating
}

// isMutating reports whether a parsed statement changes database state and so
// must be recorded in the statement log for replication.
func isMutating(stmt any) bool {
	switch stmt.(type) {
	case createTableStmt, createIndexStmt, dropTableStmt, insertStmt, updateStmt, deleteStmt:
		return true
	}
	return false
}

// flushPendingLocked is the commit point of a transaction whose statements
// all succeeded (undo log intact): it hands the buffered statements to
// the hook and returns the log index the hook assigned (0 when there was
// nothing to flush or no hook), then drops the undo log. A hook that refuses
// the batch vetoes the commit: the statements are undone, the observer never
// sees them, and the hook's error is the commit's. The hook and the observer
// borrow the statements: once they return, the buffers are emptied for the
// next transaction.
func (e *Engine) flushPendingLocked() (uint64, error) {
	stmts := e.pending
	defer e.truncPendingLocked()
	var idx uint64
	if len(stmts) > 0 && e.hook != nil {
		var err error
		if idx, err = e.hook(stmts); err != nil {
			e.rollbackLocked()
			return 0, err
		}
		if idx > e.lastLogged {
			e.lastLogged = idx
		}
	}
	e.truncUndoLocked(0, 0)
	if len(stmts) > 0 && e.observer != nil {
		e.observer(idx, stmts)
	}
	return idx, nil
}

func (e *Engine) execStmtLocked(h *Prepared, args []Value, spreadN int, hits []int, fn func([]Value) error) (int, int64, error) {
	if _, ok := h.stmt.(updateStmt); hits != nil && !ok {
		return 0, 0, fmt.Errorf("minisql: only UPDATE takes argument rows (in %q)", compactSQL(h.sql))
	}
	switch st := h.stmt.(type) {
	case createTableStmt:
		return 0, 0, e.execCreateTable(st)
	case createIndexStmt:
		return 0, 0, e.execCreateIndex(st)
	case dropTableStmt:
		return 0, 0, e.execDropTable(st)
	}
	b := e.bindLocked(h)
	if b.err != nil {
		return 0, 0, b.err
	}
	ev := &h.ev
	*ev = evalCtx{args: args, spreadN: spreadN}
	defer func() { *ev = evalCtx{} }()
	switch h.stmt.(type) {
	case insertStmt:
		return e.execInsert(b, ev)
	case selectStmt:
		n, err := h.execSelect(ev, fn)
		return n, 0, err
	case updateStmt:
		n, err := e.execUpdate(h, ev, hits)
		return n, 0, err
	case deleteStmt:
		n, err := e.execDelete(h, ev)
		return n, 0, err
	}
	return 0, 0, fmt.Errorf("minisql: cannot execute %q", compactSQL(h.sql))
}

func (e *Engine) rollbackLocked() {
	e.rollbackToLocked(0)
	e.truncPendingLocked()
}

// truncPendingLocked empties the pending statements and their arguments for
// the next transaction.
func (e *Engine) truncPendingLocked() {
	e.pending, e.pendArgs = reuse(e.pending), reuse(e.pendArgs)
}

// keepBuffered bounds, in elements, a per-transaction buffer the engine
// keeps for the next transaction. A buffer one huge transaction grew past it
// (a 100 000-task batch) is released instead, so that size is not pinned for
// the engine's lifetime.
const keepBuffered = 1 << 14

// reuse empties a finished transaction's buffer for the next one. It clears
// it, so the reused array keeps no finished transaction's values reachable,
// and releases one grown past keepBuffered.
func reuse[T any](buf []T) []T {
	if cap(buf) > keepBuffered {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// rollbackToLocked unwinds undo entries down to mark (a statement-level
// savepoint), leaving earlier entries in place.
func (e *Engine) rollbackToLocked(mark int) {
	vals := len(e.undoVals)
	for i := len(e.undo) - 1; i >= mark; i-- {
		op := e.undo[i]
		vals -= len(op.cols) // an undoUpdate's old values end undoVals
		switch t := op.t; op.kind {
		case undoInsert:
			t.delete(op.rowid)
			// Restore the AUTOINCREMENT counter: a rolled-back insert is
			// invisible to the statement log, so replicas replaying the log
			// never bump it — the leader must not either, or task IDs
			// diverge across the cluster.
			t.nextKey = op.nextKey
		case undoDelete:
			t.insertAt(op.rowid, op.row)
		case undoUpdate:
			t.write(op.rowid, op.cols, op.row, e.captures > 0)
		}
	}
	e.truncUndoLocked(mark, vals)
}

// truncUndoLocked cuts the undo log to n entries holding vals old values. It
// clears what it cuts: the reused arrays would otherwise keep a finished
// transaction's deleted rows and old values reachable. Emptied, a log grown
// past keepBuffered is released.
func (e *Engine) truncUndoLocked(n, vals int) {
	if n == 0 {
		e.undo, e.undoVals = reuse(e.undo), reuse(e.undoVals)
		return
	}
	clear(e.undo[n:])
	clear(e.undoVals[vals:])
	e.undo, e.undoVals = e.undo[:n], e.undoVals[:vals]
}

func (e *Engine) execCreateTable(st createTableStmt) error {
	if _, exists := e.tables[st.Name]; exists {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("minisql: table %q already exists", st.Name)
	}
	t, err := newTable(st.Name, st.Cols)
	if err != nil {
		return err
	}
	e.tables[st.Name] = t
	e.epoch++
	return nil
}

func (e *Engine) execCreateIndex(st createIndexStmt) error {
	t, ok := e.tables[st.Table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	spec := indexSpec(st.Cols)
	if ix, exists := t.indexes[spec]; exists {
		if !st.Ordered || ix.ordered {
			if st.IfNotExists {
				return nil
			}
			return fmt.Errorf("minisql: index on %s (%s) already exists", st.Table, spec)
		}
		// Orderedness is a property the statement demands, not a second
		// index: upgrade the existing hash index in place (even under IF NOT
		// EXISTS) instead of refusing.
	}
	if err := t.addIndex(spec, st.Ordered); err != nil {
		return err
	}
	e.epoch++
	return nil
}

func (e *Engine) execDropTable(st dropTableStmt) error {
	if _, ok := e.tables[st.Name]; !ok {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("%w: %q", ErrNoSuchTable, st.Name)
	}
	delete(e.tables, st.Name)
	e.epoch++
	return nil
}

func (e *Engine) execInsert(b *bound, ev *evalCtx) (int, int64, error) {
	t := b.t
	var last int64
	for _, exprRow := range b.rows {
		row := make([]Value, len(t.cols)) // the zero Value is NULL
		prevNextKey := t.nextKey
		ev.row = nil
		for i, ex := range exprRow {
			v, err := ex.eval(ev)
			if err != nil {
				return 0, 0, err
			}
			row[b.pos[i]] = coerce(v, t.cols[b.pos[i]].Type)
		}
		if t.autoCol >= 0 && row[t.autoCol].IsNull() {
			row[t.autoCol] = Int64(t.nextKey)
			t.nextKey++
		} else if t.autoCol >= 0 {
			if k := row[t.autoCol].AsInt(); k >= t.nextKey {
				t.nextKey = k + 1
			}
		}
		if t.autoCol >= 0 {
			last = row[t.autoCol].AsInt()
		}
		id := t.insert(row)
		e.undo = append(e.undo, undoOp{kind: undoInsert, t: t, rowid: id, nextKey: prevNextKey})
	}
	return len(b.rows), last, nil
}

// matchIDs evaluates the WHERE clause and appends the matching rowids to dst:
// ascending when an index probe (an equality or IN conjunct on an indexed
// column) supplied the candidates, in insertion order when a scan did.
func (b *bound) matchIDs(dst []int64, ev *evalCtx) ([]int64, error) {
	ids, indexed, err := b.probe.candidates(dst, ev)
	if err != nil {
		return nil, err
	}
	if !indexed {
		ids = b.t.scanIDs(dst)
	}
	return filterIDs(b.t, b.where, ev, ids)
}

// filterIDs keeps, in place, the candidates whose row satisfies where.
func filterIDs(t *table, where expr, ev *evalCtx, candidates []int64) ([]int64, error) {
	if where == nil {
		return candidates, nil
	}
	out := candidates[:0]
	for _, id := range candidates {
		row := t.row(id)
		if row == nil {
			continue
		}
		ev.row = row
		v, err := where.eval(ev)
		if err != nil {
			return nil, err
		}
		if truthy(v) {
			out = append(out, id)
		}
	}
	return out, nil
}

// candidates appends to dst the rowids the probe's index holds for this
// execution's arguments, ascending and without duplicates; indexed is false
// when the probe has no index and a full scan is needed. An indexed probe
// that matches nothing is an empty set, not a scan. Probe constants are
// coerced to the column's declared type — the form row values are stored and
// keyed in, so `int_col = '5'` probes the key the row holding 5 sits under;
// the probe only narrows, the WHERE clause still decides each row.
func (p *probe) candidates(dst []int64, ev *evalCtx) (ids []int64, indexed bool, err error) {
	switch {
	case p.ix == nil:
		return dst, false, nil
	case p.in == nil:
		v, err := p.key.eval(ev)
		if err != nil {
			return nil, false, err
		}
		return p.ix.lookup(dst, coerce(v, p.typ)), true, nil
	case p.in.Spread:
		for _, v := range p.in.spreadArgs(ev) {
			dst = p.ix.lookup(dst, coerce(v, p.typ))
		}
	default:
		for _, le := range p.in.List {
			v, err := le.eval(ev)
			if err != nil {
				return nil, false, err
			}
			dst = p.ix.lookup(dst, coerce(v, p.typ))
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst), true, nil
}

// countByIndex answers a SELECT COUNT(*) whose whole WHERE clause is one
// indexed `col = const` from the size of the index's rowid set.
func (b *bound) countByIndex(ev *evalCtx) (int, error) {
	p := &b.probe
	v, err := p.key.eval(ev)
	if err != nil {
		return 0, err
	}
	set, found := p.ix.m[coerce(v, p.typ).key()]
	if !found {
		return 0, nil
	}
	// Every row of the set holds the same column value, so the clause's
	// verdict on one of them (a NULL or non-canonical probe such as '05'
	// against 5 matches none) is its verdict on all.
	ev.row = b.t.row(set.any())
	if v, err = b.where.eval(ev); err != nil || !truthy(v) {
		return 0, err
	}
	return set.len(), nil
}

// execSelect streams the query's rows to fn (or, for COUNT(*), one row
// holding the count) and returns how many it produced or counted.
func (h *Prepared) execSelect(ev *evalCtx, fn func([]Value) error) (int, error) {
	b := &h.b
	t := b.t
	if h.count {
		var n int
		var err error
		if b.countIx {
			n, err = b.countByIndex(ev)
		} else {
			var ids []int64
			ids, err = b.matchIDs(h.ids[:0], ev)
			h.ids, n = ids[:0], len(ids)
		}
		if err != nil {
			return 0, err
		}
		if fn != nil {
			h.row[0] = Int64(int64(n))
			err = fn(h.row[:1])
		}
		return n, err
	}

	// Ordered top-n fast path: ORDER BY an ordered-indexed column with a
	// LIMIT reads the index in key order and stops at n matches, replacing
	// the scan-everything-then-sort pipeline below.
	ids, fromIndex, err := b.orderedTopN(h.ids[:0], ev)
	if err != nil {
		return 0, err
	}
	if !fromIndex {
		if ids, err = b.matchIDs(h.ids[:0], ev); err != nil {
			return 0, err
		}
		if len(b.order) > 0 {
			slices.SortStableFunc(ids, func(x, y int64) int {
				return cmpRows(t.row(x), t.row(y), b.order)
			})
		}
		if b.limit != nil {
			lv, err := b.limit.eval(ev)
			if err != nil {
				return 0, err
			}
			if n := max(0, int(lv.AsInt())); n < len(ids) {
				ids = ids[:n]
			}
		}
	}
	h.ids = ids[:0]
	if fn == nil {
		return len(ids), nil
	}
	for _, id := range ids {
		row := t.row(id)
		for i, p := range b.pos {
			h.row[i] = row[p]
		}
		if err := fn(h.row); err != nil {
			return 0, err
		}
	}
	return len(ids), nil
}

// cmpRows orders two rows by ORDER BY keys.
func cmpRows(ra, rb []Value, keys []orderPos) int {
	for _, k := range keys {
		if c := ra[k.pos].Compare(rb[k.pos]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// orderedTopN serves SELECT ... [WHERE ...] ORDER BY k1 [DESC] [, k2 ...]
// LIMIT n off the ordered index on k1 the binding chose, when there is one:
// rows are visited in k1 order (runs of equal k1 sub-sorted by the remaining
// keys) and the scan stops as soon as n rows matched the WHERE clause.
// fromIndex is false when the query shape or schema rules the path out and
// the caller must fall back to scan-and-sort. The trade: a highly selective
// WHERE over a huge table pays an index scan proportional to the rows
// *visited*, not matched — the EMEWS queue pops (filter by work_type, order by
// priority) match most of what they visit, which is exactly the shape this
// path is for.
func (b *bound) orderedTopN(dst []int64, ev *evalCtx) (ids []int64, fromIndex bool, err error) {
	if b.top == nil {
		return dst, false, nil
	}
	t := b.t
	lv, err := b.limit.eval(ev)
	if err != nil {
		return nil, false, err
	}
	n := int(lv.AsInt())
	if n <= 0 {
		return dst[:0], true, nil
	}
	// When an equality conjunct pins the result to a small hash-indexed
	// candidate set, sorting those few candidates beats walking the ordered
	// index past every non-matching row — leave the query to the fallback.
	if c := &b.card; c.ix != nil {
		v, err := c.key.eval(ev)
		if err != nil {
			return nil, false, err
		}
		if c.ix.count(coerce(v, c.typ)) <= 4*n+16 {
			return dst, false, nil
		}
	}
	rest := b.order[1:]
	cmpRest := func(x, y int64) int { return cmpRows(t.row(x), t.row(y), rest) }

	// The index is consumed one run of equal first-key values at a time, runs
	// in query order and each run ascending by (second key,) rowid, until n
	// rows matched. [lo, hi) is the part not yet visited.
	list := &b.top.sorted
	desc := b.order[0].desc
	ids = dst[:0]
	for lo, hi := (ordPos{}), list.end(); lo != hi && len(ids) < n; {
		from, to := lo, hi
		switch {
		case b.stream && !desc:
			// Ascending on both keys: the list's own order is the query order.
			lo = hi
		case desc:
			v := list.at(list.prev(hi)).v
			from = list.search(func(e *ordEntry) bool { return e.v.Compare(v) < 0 })
			hi = from
		default:
			v := list.at(lo).v
			to = list.search(func(e *ordEntry) bool { return e.v.Compare(v) <= 0 })
			lo = to
		}
		start := len(ids)
		for p := from; p != to; p = list.next(p) {
			// A composite index's run already carries the remaining ORDER BY
			// order (second key ascending, rowid tiebreak matching the
			// fallback's stable sort), so the visit is bounded by the matches
			// needed, not by the run's length.
			if b.stream && len(ids) == n {
				break
			}
			id := list.at(p).id
			if b.where != nil {
				ev.row = t.row(id)
				v, err := b.where.eval(ev)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			ids = append(ids, id)
		}
		// A single-column index leaves the run in rowid order (deterministic
		// insertion-id order): put it in remaining-key order. A stable sort
		// keeps full ties in rowid order, matching the fallback path's stable
		// full sort. Queue pops usually find the run already in order (task
		// ids ascend with rowids), so an O(len) pre-pass skips the sort.
		if run := ids[start:]; !b.stream && len(rest) > 0 &&
			!slices.IsSortedFunc(run, cmpRest) {
			slices.SortStableFunc(run, cmpRest)
		}
	}
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids, true, nil
}

// execUpdate runs an UPDATE once per argument row: one row — all of the
// arguments — when hits is nil, else len(hits) rows back to back, each
// executed as the statement with that row bound, in order, with its
// rows-affected count stored in hits.
// A matched row is written in place (table.write, which copies it only while
// a checkpoint capture is in flight): its SET values are evaluated against
// the old row first, and the SET columns' old values go to the undo log.
func (e *Engine) execUpdate(h *Prepared, ev *evalCtx, hits []int) (int, error) {
	b := &h.b
	t := b.t
	args := ev.args
	rows := max(1, len(hits))
	width := len(args) / rows
	total := 0
	for r := 0; r < rows; r++ {
		ev.args, ev.row = args[r*width:(r+1)*width], nil
		ids, err := b.matchIDs(h.ids[:0], ev)
		if err != nil {
			return 0, err
		}
		h.ids = ids[:0]
		for _, id := range ids {
			row := t.row(id)
			ev.row = row
			for i, x := range b.set {
				v, err := x.eval(ev)
				if err != nil {
					return 0, err
				}
				h.row[i] = coerce(v, t.cols[b.pos[i]].Type)
			}
			lo := len(e.undoVals)
			for _, c := range b.pos {
				e.undoVals = append(e.undoVals, row[c])
			}
			e.undo = append(e.undo, undoOp{kind: undoUpdate, t: t, rowid: id, row: e.undoVals[lo:], cols: b.pos})
			t.write(id, b.pos, h.row, e.captures > 0)
		}
		total += len(ids)
		if hits != nil {
			hits[r] = len(ids)
		}
	}
	return total, nil
}

func (e *Engine) execDelete(h *Prepared, ev *evalCtx) (int, error) {
	t := h.b.t
	ids, err := h.b.matchIDs(h.ids[:0], ev)
	if err != nil {
		return 0, err
	}
	h.ids = ids[:0]
	n := 0
	for _, id := range ids {
		if row := t.delete(id); row != nil {
			e.undo = append(e.undo, undoOp{kind: undoDelete, t: t, rowid: id, row: row})
			n++
		}
	}
	return n, nil
}

func truthy(v Value) bool {
	switch v.Kind {
	case KindNull:
		return false
	case KindInt:
		return v.Int != 0
	case KindFloat:
		return v.Float != 0
	default:
		return v.Text != ""
	}
}

// --- expression evaluation ---

func (c *colRef) eval(ev *evalCtx) (Value, error) {
	if c.Pos < 0 {
		return Value{}, fmt.Errorf("minisql: no column %q in table %q", c.Name, c.Table)
	}
	if ev.row == nil {
		return Value{}, fmt.Errorf("minisql: column %q referenced outside row context", c.Name)
	}
	return ev.row[c.Pos], nil
}

func (l *litExpr) eval(*evalCtx) (Value, error) { return l.V, nil }

func (p *paramExpr) eval(ev *evalCtx) (Value, error) {
	idx := p.Idx
	if p.AfterSpread {
		// Fixed parameters after an IN (?...) spread shift right by however
		// many arguments the spread absorbed this execution.
		idx += ev.spreadN
	}
	if idx >= len(ev.args) {
		return Value{}, fmt.Errorf("minisql: statement needs at least %d arguments, got %d",
			idx+1, len(ev.args))
	}
	return ev.args[idx], nil
}

func (b *binExpr) eval(ev *evalCtx) (Value, error) {
	l, err := b.L.eval(ev)
	if err != nil {
		return Value{}, err
	}
	if b.Op == "AND" && !truthy(l) {
		return Int64(0), nil
	}
	r, err := b.R.eval(ev)
	if err != nil {
		return Value{}, err
	}
	if b.Op == "AND" {
		return boolVal(truthy(r)), nil
	}
	// "=". SQL three-valued logic: a comparison with NULL is false.
	return boolVal(!l.IsNull() && !r.IsNull() && l.Compare(r) == 0), nil
}

func (in *inExpr) eval(ev *evalCtx) (Value, error) {
	tv, err := in.Target.eval(ev)
	if err != nil {
		return Value{}, err
	}
	if tv.IsNull() {
		return Int64(0), nil
	}
	if in.Spread {
		for _, lv := range in.spreadArgs(ev) {
			if !lv.IsNull() && tv.Compare(lv) == 0 {
				return Int64(1), nil
			}
		}
		return Int64(0), nil
	}
	for _, le := range in.List {
		lv, err := le.eval(ev)
		if err != nil {
			return Value{}, err
		}
		if !lv.IsNull() && tv.Compare(lv) == 0 {
			return Int64(1), nil
		}
	}
	return Int64(0), nil
}

// spreadArgs returns the argument window an IN (?...) list binds to in this
// execution: spreadN arguments starting at the spread's fixed-parameter
// offset.
func (in *inExpr) spreadArgs(ev *evalCtx) []Value {
	lo := in.SpreadStart
	hi := lo + ev.spreadN
	if lo > len(ev.args) || hi > len(ev.args) {
		return nil
	}
	return ev.args[lo:hi]
}

func boolVal(b bool) Value {
	if b {
		return Int64(1)
	}
	return Int64(0)
}
