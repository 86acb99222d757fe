package minisql

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Common engine errors.
var (
	ErrNoSuchTable = errors.New("minisql: no such table")
	ErrNoTx        = errors.New("minisql: no transaction in progress")
	ErrInTx        = errors.New("minisql: transaction already in progress")
)

// Result is the outcome of executing one statement.
type Result struct {
	Columns      []string
	Rows         [][]Value
	RowsAffected int
	LastInsertID int64
}

// Engine is an embedded relational database. All methods are safe for
// concurrent use; statements execute under a single engine-wide writer lock,
// mirroring the paper's single resource-local database instance.
type Engine struct {
	mu     sync.Mutex
	tables map[string]*table

	inTx bool
	undo []undoOp

	hook       CommitHook     // observes committed mutating statements (wal.go)
	observer   CommitObserver // passive tap on every applied batch (wal.go)
	applying   bool           // true while replaying a shipped entry
	pending    []Stmt         // mutating statements awaiting commit
	lastLogged uint64         // highest log index the hook has assigned
	spreadN    int            // spread-IN width of the statement executing now

	plans *planCache // parsed statements by SQL text (plancache.go)

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
	undoUpdate                 // undone by restoring old row
)

type undoOp struct {
	kind    undoKind
	table   string
	rowid   int64
	row     []Value
	nextKey int64 // undoInsert: the table's nextKey before the insert
}

// NewEngine returns an empty database.
func NewEngine() *Engine {
	return &Engine{tables: make(map[string]*table), plans: newPlanCache()}
}

// Exec parses and executes a single SQL statement with positional `?`
// arguments. It returns the statement result.
func (e *Engine) Exec(sql string, args ...any) (*Result, error) {
	res, _, err := e.ExecLogged(sql, args...)
	return res, err
}

// ExecLogged is Exec returning, additionally, the commit token of the
// statement: the log index the commit hook assigned to this statement's WAL
// entry. The token is 0 for non-mutating statements, when no hook is
// installed, or while inside an explicit transaction (the whole transaction
// gets one entry at COMMIT — use TxLogged).
func (e *Engine) ExecLogged(sql string, args ...any) (*Result, uint64, error) {
	p, err := e.cachedParse(sql)
	if err != nil {
		return nil, 0, err
	}
	stmt := p.stmt
	spreadN, err := p.spreadWidth(sql, len(args))
	if err != nil {
		return nil, 0, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spreadN = spreadN
	if !e.inTx && isMutating(stmt) {
		// Implicit transaction: a mutating statement that fails part-way
		// (e.g. a bad row in a multi-row INSERT) must leave no trace —
		// partial effects would never reach the statement log, silently
		// diverging replicas from the leader.
		e.inTx = true
		e.undo = e.undo[:0]
		res, err := e.execLocked(stmt, vals, sql, nil)
		if err != nil {
			e.rollbackLocked()
			e.inTx = false
			return nil, 0, err
		}
		e.inTx = false
		idx, err := e.flushPendingLocked()
		if err != nil {
			return nil, 0, err
		}
		return res, idx, nil
	}
	res, err := e.execLocked(stmt, vals, sql, nil)
	var idx uint64
	if err == nil && !e.inTx {
		idx, err = e.flushPendingLocked()
	}
	return res, idx, err
}

// Tx runs fn inside a transaction: fn's statements are committed if fn
// returns nil and rolled back otherwise. The engine lock is held throughout,
// so fn must not call Exec (use the passed Tx handle).
func (e *Engine) Tx(fn func(tx *Tx) error) error {
	_, err := e.TxLogged(fn)
	return err
}

// TxLogged is Tx returning, additionally, the commit token of the
// transaction: the log index the commit hook assigned to the transaction's
// WAL entry. The token is 0 when the transaction contained no mutating
// statements or no hook is installed.
func (e *Engine) TxLogged(fn func(tx *Tx) error) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inTx {
		return 0, ErrInTx
	}
	e.inTx = true
	e.undo = e.undo[:0]
	e.pending = nil
	err := fn(&Tx{e: e})
	if err != nil {
		e.rollbackLocked()
		e.inTx = false
		return 0, err
	}
	e.inTx = false
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

// Tx is a transaction handle passed to Engine.Tx callbacks.
type Tx struct{ e *Engine }

// Exec executes a statement within the transaction.
func (tx *Tx) Exec(sql string, args ...any) (*Result, error) {
	p, err := tx.e.cachedParse(sql)
	if err != nil {
		return nil, err
	}
	spreadN, err := p.spreadWidth(sql, len(args))
	if err != nil {
		return nil, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	tx.e.spreadN = spreadN
	return tx.e.execLocked(p.stmt, vals, sql, nil)
}

// ExecRows executes a parameterised UPDATE once per argument row: args holds
// len(args)/nparams rows back to back, each bound to the statement's
// parameters in turn and seeing the rows before it applied, exactly as that
// many Exec calls would. The statement is parsed and bound once, and commits
// as one logged Stmt carrying every row, which ApplyEntry replays row by row
// through the same executor. The set is atomic: an error in any row undoes the
// rows before it and logs nothing. It returns each argument row's
// rows-affected count. args is surrendered to the log; the caller must not
// modify it afterwards.
func (tx *Tx) ExecRows(sql string, args []Value) ([]int, error) {
	p, err := tx.e.cachedParse(sql)
	if err != nil {
		return nil, err
	}
	rows, err := p.argRows(sql, len(args))
	if err != nil {
		return nil, err
	}
	tx.e.spreadN = 0
	hits := make([]int, rows)
	if _, err := tx.e.execLocked(p.stmt, args, sql, hits); err != nil {
		return nil, err
	}
	return hits, nil
}

// spreadWidth checks an Exec's argument count against the plan — a statement
// without a spread takes exactly its parameter count: surplus arguments would
// read as further argument rows once logged — and returns how many arguments
// the spread absorbs.
func (p plan) spreadWidth(sql string, nargs int) (int, error) {
	if nargs < p.nparams || (!p.spread && nargs > p.nparams) {
		return 0, fmt.Errorf("minisql: statement has %d parameters, %d arguments given (in %q)",
			p.nparams, nargs, compactSQL(sql))
	}
	return nargs - p.nparams, nil
}

// argRows reports how many whole argument rows nargs arguments make for a
// set-based execution of the plan (Tx.ExecRows, or its logged Stmt replayed).
func (p plan) argRows(sql string, nargs int) (int, error) {
	if p.spread || p.nparams == 0 || nargs == 0 || nargs%p.nparams != 0 {
		return 0, fmt.Errorf("minisql: %d arguments are not whole rows of the statement's %d fixed parameters (in %q)",
			nargs, p.nparams, compactSQL(sql))
	}
	return nargs / p.nparams, nil
}

// toValues converts Exec arguments to Values.
func toValues(args []any) ([]Value, error) {
	vals := make([]Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// execLocked executes one parsed statement and, on success, records mutating
// statements for the commit hook (flushed by Exec and Tx at commit points).
// Inside a transaction each statement is atomic: a mid-statement failure
// (e.g. a bad row in a multi-row INSERT) unwinds just that statement's
// effects. Failed statements never reach the commit hook, so without the
// unwind a caller that swallows the error and commits would persist rows
// the statement log never saw — silently diverging replicas.
//
// A non-nil hits makes the execution set-based: args holds len(hits) argument
// rows and hits receives each row's rows-affected count (execUpdate).
func (e *Engine) execLocked(stmt any, args []Value, sql string, hits []int) (*Result, error) {
	mark := len(e.undo)
	var t0 time.Time
	if e.slowNanos > 0 {
		t0 = time.Now()
	}
	res, err := e.execStmtLocked(stmt, args, sql, hits)
	if e.slowNanos > 0 && e.slowFn != nil {
		if d := time.Since(t0); int64(d) >= e.slowNanos {
			e.slowFn(sql, d)
		}
	}
	if err != nil {
		if e.inTx {
			e.rollbackToLocked(mark)
		}
		return res, err
	}
	if (e.hook != nil || e.observer != nil) && !e.applying && isMutating(stmt) {
		e.pending = append(e.pending, Stmt{SQL: sql, Args: args})
	}
	return res, err
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

// flushPendingLocked is the commit point of a transaction that has just
// closed (inTx false, undo log intact): it hands the buffered statements to
// the hook and returns the log index the hook assigned (0 when there was
// nothing to flush or no hook), then drops the undo log. A hook that refuses
// the batch vetoes the commit: the statements are undone, the observer never
// sees them, and the hook's error is the commit's. The slice is surrendered
// to the hook, never reused.
func (e *Engine) flushPendingLocked() (uint64, error) {
	stmts := e.pending
	e.pending = nil
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
	e.undo = e.undo[:0]
	if len(stmts) > 0 && e.observer != nil {
		e.observer(idx, stmts)
	}
	return idx, nil
}

func (e *Engine) execStmtLocked(stmt any, args []Value, sql string, hits []int) (*Result, error) {
	if _, ok := stmt.(updateStmt); hits != nil && !ok {
		return nil, fmt.Errorf("minisql: only UPDATE takes argument rows (in %q)", compactSQL(sql))
	}
	switch st := stmt.(type) {
	case createTableStmt:
		return e.execCreateTable(st)
	case createIndexStmt:
		return e.execCreateIndex(st)
	case dropTableStmt:
		return e.execDropTable(st)
	case insertStmt:
		return e.execInsert(st, args)
	case selectStmt:
		return e.execSelect(st, args)
	case updateStmt:
		return e.execUpdate(st, args, hits)
	case deleteStmt:
		return e.execDelete(st, args)
	case beginStmt:
		if e.inTx {
			return nil, ErrInTx
		}
		e.inTx = true
		e.undo = e.undo[:0]
		e.pending = nil
		return &Result{}, nil
	case commitStmt:
		if !e.inTx {
			return nil, ErrNoTx
		}
		e.inTx = false // ExecLogged flushes: the commit point
		return &Result{}, nil
	case rollbackStmt:
		if !e.inTx {
			return nil, ErrNoTx
		}
		e.rollbackLocked()
		e.inTx = false
		return &Result{}, nil
	}
	return nil, fmt.Errorf("minisql: cannot execute %q", compactSQL(sql))
}

func (e *Engine) rollbackLocked() {
	e.rollbackToLocked(0)
	e.pending = nil
}

// rollbackToLocked unwinds undo entries down to mark (a statement-level
// savepoint), leaving earlier entries in place.
func (e *Engine) rollbackToLocked(mark int) {
	for i := len(e.undo) - 1; i >= mark; i-- {
		op := e.undo[i]
		t := e.tables[op.table]
		if t == nil {
			continue
		}
		switch op.kind {
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
			t.update(op.rowid, op.row)
		}
	}
	e.undo = e.undo[:mark]
}

func (e *Engine) logUndo(op undoOp) {
	if e.inTx {
		e.undo = append(e.undo, op)
	}
}

func (e *Engine) execCreateTable(st createTableStmt) (*Result, error) {
	if _, exists := e.tables[st.Name]; exists {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("minisql: table %q already exists", st.Name)
	}
	t, err := newTable(st.Name, st.Cols)
	if err != nil {
		return nil, err
	}
	e.tables[st.Name] = t
	e.plans.purge()
	return &Result{}, nil
}

func (e *Engine) execCreateIndex(st createIndexStmt) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	spec := indexSpec(st.Cols)
	if ix, exists := t.indexes[spec]; exists {
		if st.Ordered && !ix.ordered {
			// Orderedness is a property the statement demands, not a second
			// index: upgrade the existing hash index in place (even under IF
			// NOT EXISTS) instead of refusing.
			if err := t.addIndex(spec, true); err != nil {
				return nil, err
			}
			e.plans.purge()
			return &Result{}, nil
		}
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("minisql: index on %s (%s) already exists", st.Table, spec)
	}
	if err := t.addIndex(spec, st.Ordered); err != nil {
		return nil, err
	}
	e.plans.purge()
	return &Result{}, nil
}

func (e *Engine) execDropTable(st dropTableStmt) (*Result, error) {
	if _, ok := e.tables[st.Name]; !ok {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Name)
	}
	delete(e.tables, st.Name)
	e.plans.purge()
	return &Result{}, nil
}

func (e *Engine) execInsert(st insertStmt, args []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	cols := st.Cols
	if len(cols) == 0 {
		cols = make([]string, len(t.cols))
		for i, c := range t.cols {
			cols[i] = c.Name
		}
	}
	colPos := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := t.colIdx[c]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", c, st.Table)
		}
		colPos[i] = ci
	}
	res := &Result{}
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("minisql: INSERT into %q has %d values for %d columns",
				st.Table, len(exprRow), len(cols))
		}
		row := make([]Value, len(t.cols))
		for i := range row {
			row[i] = Null()
		}
		prevNextKey := t.nextKey
		ev := &evalCtx{tbl: t, args: args, spreadN: e.spreadN}
		for i, ex := range exprRow {
			v, err := ex.eval(ev)
			if err != nil {
				return nil, err
			}
			row[colPos[i]] = coerce(v, t.cols[colPos[i]].Type)
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
			res.LastInsertID = row[t.autoCol].AsInt()
		}
		id := t.insert(row)
		e.logUndo(undoOp{kind: undoInsert, table: t.name, rowid: id, nextKey: prevNextKey})
		res.RowsAffected++
	}
	return res, nil
}

// matchIDs evaluates the WHERE clause and returns matching rowids in
// insertion order, using a hash index when the predicate contains a
// top-level equality (or IN) conjunct on an indexed column.
func (e *Engine) matchIDs(t *table, where expr, ev *evalCtx) ([]int64, error) {
	candidates, indexed := e.planCandidates(t, where, ev)
	if !indexed {
		candidates = t.scanIDs()
	}
	return filterIDs(t, where, ev, candidates)
}

// filterIDs keeps, in place, the candidates whose row satisfies where.
func filterIDs(t *table, where expr, ev *evalCtx, candidates []int64) ([]int64, error) {
	if where == nil {
		return candidates, nil
	}
	out := candidates[:0]
	for _, id := range candidates {
		row, ok := t.rows[id]
		if !ok {
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

// planCandidates returns a candidate rowid set, ascending, from the first
// top-level conjunct an index serves; indexed is false when none does and a
// full scan is needed. An indexed probe that matches nothing is an empty set,
// not a scan.
func (e *Engine) planCandidates(t *table, where expr, ev *evalCtx) (ids []int64, indexed bool) {
	for _, c := range flattenAnd(where) {
		if ix, probe, ok := eqProbe(t, c, ev); ok {
			return ix.lookup(nil, probe), true
		}
		ex, ok := c.(*inExpr)
		if !ok {
			continue
		}
		cr, ok := ex.Target.(*colRef)
		if !ok {
			continue
		}
		ix := t.indexes[cr.Name]
		if ix == nil {
			continue
		}
		typ := t.cols[ix.cols[0]].Type
		if ex.Spread {
			for _, v := range ex.spreadArgs(ev) {
				ids = ix.lookup(ids, coerce(v, typ))
			}
		} else {
			for _, le := range ex.List {
				v, err := le.eval(ev)
				if err != nil {
					return nil, false
				}
				ids = ix.lookup(ids, coerce(v, typ))
			}
		}
		slices.Sort(ids)
		return slices.Compact(ids), true
	}
	return nil, false
}

// eqIndex recognises `col = const` (either order) on a column that carries a
// single-column index, and returns that index with the constant's expression
// (a literal or a parameter); a nil index when c is anything else.
func eqIndex(t *table, c expr) (*hashIndex, expr) {
	ex, ok := c.(*binExpr)
	if !ok || ex.Op != "=" {
		return nil, nil
	}
	for _, side := range [2][2]expr{{ex.L, ex.R}, {ex.R, ex.L}} {
		cr, ok := side[0].(*colRef)
		if !ok {
			continue
		}
		ix := t.indexes[cr.Name]
		if ix == nil {
			continue
		}
		switch side[1].(type) {
		case *litExpr, *paramExpr:
			return ix, side[1]
		}
	}
	return nil, nil
}

// eqProbe is eqIndex with the constant evaluated and coerced to the column's
// declared type — the form row values are stored and keyed in, so
// `int_col = '5'` probes the same key the row holding 5 sits under. The probe
// only narrows candidates; the WHERE clause still decides each row.
func eqProbe(t *table, c expr, ev *evalCtx) (*hashIndex, Value, bool) {
	ix, k := eqIndex(t, c)
	if ix == nil {
		return nil, Value{}, false
	}
	v, err := k.eval(ev)
	if err != nil {
		return nil, Value{}, false
	}
	return ix, coerce(v, t.cols[ix.cols[0]].Type), true
}

// eqCardinality reports, without materializing candidates, how many rows a
// top-level `col = const` conjunct on a hash-indexed column pins the result
// to. bounded is false when no such conjunct exists (the result could be the
// whole table).
func (e *Engine) eqCardinality(t *table, where expr, ev *evalCtx) (est int, bounded bool) {
	for _, c := range flattenAnd(where) {
		if ix, probe, ok := eqProbe(t, c, ev); ok {
			return ix.count(probe), true
		}
	}
	return 0, false
}

// countByIndex answers SELECT COUNT(...) whose whole WHERE clause is one
// indexed `col = const` from the size of the index's rowid set. Anything
// ANDed in needs per-row evaluation and is left to the caller.
func (e *Engine) countByIndex(t *table, st selectStmt, ev *evalCtx) (n int, ok bool, err error) {
	if len(st.Cols) != 1 || st.Cols[0].Agg != "COUNT" {
		return 0, false, nil
	}
	ix, probe, ok := eqProbe(t, st.Where, ev)
	if !ok {
		return 0, false, nil
	}
	set, found := ix.m[probe.key()]
	if !found {
		return 0, true, nil
	}
	// Every row of the set holds the same column value, so the clause's
	// verdict on one of them (a NULL or non-canonical probe such as '05'
	// against 5 matches none) is its verdict on all.
	ev.row = t.rows[set.any()]
	v, err := st.Where.eval(ev)
	if err != nil {
		return 0, false, err
	}
	if !truthy(v) {
		return 0, true, nil
	}
	return set.len(), true, nil
}

func flattenAnd(ex expr) []expr {
	b, ok := ex.(*binExpr)
	if !ok || b.Op != "AND" {
		if ex == nil {
			return nil
		}
		return []expr{ex}
	}
	return append(flattenAnd(b.L), flattenAnd(b.R)...)
}

func (e *Engine) execSelect(st selectStmt, args []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}

	ev := &evalCtx{tbl: t, args: args, spreadN: e.spreadN}
	if n, ok, err := e.countByIndex(t, st, ev); err != nil {
		return nil, err
	} else if ok {
		return &Result{Columns: []string{aggName(st.Cols[0])}, Rows: [][]Value{{Int64(int64(n))}}}, nil
	}

	// Ordered top-n fast path: ORDER BY an ordered-indexed column with a
	// LIMIT reads the index in key order and stops at n matches, replacing
	// the scan-everything-then-sort pipeline below.
	ids, fromIndex, err := e.orderedTopN(t, st, ev)
	if err != nil {
		return nil, err
	}
	if !fromIndex {
		ids, err = e.matchIDs(t, st.Where, ev)
		if err != nil {
			return nil, err
		}
	}

	// Aggregate query?
	if len(st.Cols) > 0 && st.Cols[0].Agg != "" {
		return e.execAggregate(t, st, ids)
	}

	// Resolve projection.
	var names []string
	var pos []int
	for _, sc := range st.Cols {
		if sc.Star {
			for i, c := range t.cols {
				names = append(names, c.Name)
				pos = append(pos, i)
			}
			continue
		}
		ci, ok := t.colIdx[sc.Name]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", sc.Name, st.Table)
		}
		names = append(names, sc.Name)
		pos = append(pos, ci)
	}

	// ORDER BY and LIMIT — already applied when the ids came off the index.
	if !fromIndex {
		if len(st.OrderBy) > 0 {
			keyPos := make([]int, len(st.OrderBy))
			for i, k := range st.OrderBy {
				ci, ok := t.colIdx[k.Col]
				if !ok {
					return nil, fmt.Errorf("minisql: no column %q in table %q", k.Col, st.Table)
				}
				keyPos[i] = ci
			}
			sort.SliceStable(ids, func(a, b int) bool {
				ra, rb := t.rows[ids[a]], t.rows[ids[b]]
				for i, kp := range keyPos {
					c := ra[kp].Compare(rb[kp])
					if c == 0 {
						continue
					}
					if st.OrderBy[i].Desc {
						return c > 0
					}
					return c < 0
				}
				return false
			})
		}
		if st.Limit != nil {
			lv, err := st.Limit.eval(ev)
			if err != nil {
				return nil, err
			}
			n := int(lv.AsInt())
			if n < 0 {
				n = 0
			}
			if n < len(ids) {
				ids = ids[:n]
			}
		}
	}

	// One flat backing array for all result rows: the per-row []Value
	// allocation is the dominant allocator in queue-pop result sets.
	res := &Result{Columns: names, Rows: make([][]Value, len(ids))}
	flat := make([]Value, len(ids)*len(pos))
	for k, id := range ids {
		row := t.rows[id]
		out := flat[k*len(pos) : (k+1)*len(pos) : (k+1)*len(pos)]
		for i, p := range pos {
			out[i] = row[p]
		}
		res.Rows[k] = out
	}
	return res, nil
}

// orderedTopN serves SELECT ... [WHERE ...] ORDER BY k1 [DESC] [, k2 ...]
// LIMIT n off the ordered index on k1, when one exists: rows are visited in
// k1 order (runs of equal k1 sub-sorted by the remaining keys) and the scan
// stops as soon as n rows matched the WHERE clause. fromIndex is false when
// the query shape or schema rules the path out and the caller must fall back
// to scan-and-sort. The trade: a highly selective WHERE over a huge table
// pays an index scan proportional to the rows *visited*, not matched — the
// EMEWS queue pops (filter by work_type, order by priority) match most of
// what they visit, which is exactly the shape this path is for.
func (e *Engine) orderedTopN(t *table, st selectStmt, ev *evalCtx) (ids []int64, fromIndex bool, err error) {
	if len(st.OrderBy) == 0 || st.Limit == nil {
		return nil, false, nil
	}
	if len(st.Cols) > 0 && st.Cols[0].Agg != "" {
		return nil, false, nil
	}
	// Index selection: among ordered indexes leading with the first ORDER BY
	// column, prefer a composite whose second column continues the ORDER BY
	// ascending — its sorted side carries the full query order, so the scan
	// streams matches and stops at n even when every row shares one first-key
	// value (the uniform-priority queue case, where a single-column index
	// degenerates into one whole-table run). A composite whose second column
	// does not match the query is unusable here: its within-run order is not
	// the insertion order the fallback sort would produce.
	var ix, single *hashIndex
	stream := false
	for _, cand := range t.indexes {
		if !cand.ordered || t.cols[cand.cols[0]].Name != st.OrderBy[0].Col {
			continue
		}
		if len(cand.cols) == 1 {
			single = cand
			continue
		}
		if len(st.OrderBy) == 2 && t.cols[cand.cols[1]].Name == st.OrderBy[1].Col && !st.OrderBy[1].Desc {
			ix, stream = cand, true
		}
	}
	if ix == nil {
		ix = single
	}
	if ix == nil {
		return nil, false, nil
	}
	rest := st.OrderBy[1:]
	restPos := make([]int, len(rest))
	for i, k := range rest {
		ci, ok := t.colIdx[k.Col]
		if !ok {
			return nil, false, fmt.Errorf("minisql: no column %q in table %q", k.Col, st.Table)
		}
		restPos[i] = ci
	}
	lv, err := st.Limit.eval(ev)
	if err != nil {
		return nil, false, err
	}
	n := int(lv.AsInt())
	if n <= 0 {
		return []int64{}, true, nil
	}
	// When an equality conjunct pins the result to a small hash-indexed
	// candidate set, sorting those few candidates beats walking the ordered
	// index past every non-matching row — leave the query to the fallback.
	if est, bounded := e.eqCardinality(t, st.Where, ev); bounded && est <= 4*n+16 {
		return nil, false, nil
	}

	cmpRest := func(a, b int64) int {
		ra, rb := t.rows[a], t.rows[b]
		for i, kp := range restPos {
			c := ra[kp].Compare(rb[kp])
			if c == 0 {
				continue
			}
			if rest[i].Desc {
				return -c
			}
			return c
		}
		return 0
	}

	// The index is consumed one run of equal first-key values at a time, runs
	// in query order and each run ascending by (second key,) rowid, until n
	// rows matched. [lo, hi) is the part not yet visited.
	list := &ix.sorted
	desc := st.OrderBy[0].Desc
	ids = []int64{}
	for lo, hi := (ordPos{}), list.end(); lo != hi && len(ids) < n; {
		from, to := lo, hi
		switch {
		case stream && !desc:
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
			if stream && len(ids) == n {
				break
			}
			id := list.at(p).id
			if st.Where != nil {
				ev.row = t.rows[id]
				v, err := st.Where.eval(ev)
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
		if run := ids[start:]; !stream && len(restPos) > 0 &&
			!slices.IsSortedFunc(run, cmpRest) {
			slices.SortStableFunc(run, cmpRest)
		}
	}
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids, true, nil
}

func (e *Engine) execAggregate(t *table, st selectStmt, ids []int64) (*Result, error) {
	res := &Result{}
	var out []Value
	for _, sc := range st.Cols {
		if sc.Agg == "" {
			return nil, errors.New("minisql: cannot mix aggregate and plain columns")
		}
		res.Columns = append(res.Columns, aggName(sc))
		switch sc.Agg {
		case "COUNT":
			out = append(out, Int64(int64(len(ids))))
		case "MIN", "MAX", "SUM":
			ci, ok := t.colIdx[sc.Name]
			if !ok {
				return nil, fmt.Errorf("minisql: no column %q in table %q", sc.Name, st.Table)
			}
			out = append(out, aggregate(sc.Agg, t, ids, ci))
		}
	}
	res.Rows = [][]Value{out}
	return res, nil
}

func aggName(sc selectCol) string {
	if sc.Name == "" {
		return "count"
	}
	return sc.Agg + "(" + sc.Name + ")"
}

func aggregate(op string, t *table, ids []int64, ci int) Value {
	var acc Value
	var sumI int64
	var sumF float64
	isFloat := false
	n := 0
	for _, id := range ids {
		v := t.rows[id][ci]
		if v.IsNull() {
			continue
		}
		n++
		switch op {
		case "MIN":
			if acc.IsNull() || v.Compare(acc) < 0 {
				acc = v
			}
		case "MAX":
			if acc.IsNull() || v.Compare(acc) > 0 {
				acc = v
			}
		case "SUM":
			if v.Kind == KindFloat {
				isFloat = true
			}
			sumI += v.AsInt()
			sumF += v.AsFloat()
		}
	}
	if op == "SUM" {
		if n == 0 {
			return Null()
		}
		if isFloat {
			return Float64(sumF)
		}
		return Int64(sumI)
	}
	return acc
}

// execUpdate runs an UPDATE once per argument row: one row — all of args —
// when hits is nil, else len(hits) rows back to back in args, each executed
// as the statement with that row bound, in order, with its rows-affected count
// stored in hits. Everything that does not depend on the arguments is resolved
// once, before the loop: the table, the SET column positions, and the index a
// `col = const` conjunct of the WHERE clause probes.
func (e *Engine) execUpdate(st updateStmt, args []Value, hits []int) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	setPos := make([]int, len(st.Set))
	for i, a := range st.Set {
		ci, ok := t.colIdx[a.Col]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", a.Col, st.Table)
		}
		setPos[i] = ci
	}
	var ix *hashIndex
	var probe expr
	for _, c := range flattenAnd(st.Where) {
		if ix, probe = eqIndex(t, c); ix != nil {
			break
		}
	}
	rows := max(1, len(hits))
	width := len(args) / rows
	ev := &evalCtx{tbl: t, spreadN: e.spreadN}
	res := &Result{}
	var ids []int64 // candidate scratch, reused across rows
	for r := 0; r < rows; r++ {
		ev.args, ev.row = args[r*width:(r+1)*width], nil
		var err error
		if ix == nil {
			ids, err = e.matchIDs(t, st.Where, ev)
		} else if v, perr := probe.eval(ev); perr != nil {
			err = perr
		} else {
			ids = ix.lookup(ids[:0], coerce(v, t.cols[ix.cols[0]].Type))
			ids, err = filterIDs(t, st.Where, ev, ids)
		}
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			old := t.rows[id]
			row := make([]Value, len(old))
			copy(row, old)
			ev.row = old
			for i, a := range st.Set {
				v, err := a.Val.eval(ev)
				if err != nil {
					return nil, err
				}
				row[setPos[i]] = coerce(v, t.cols[setPos[i]].Type)
			}
			prev := t.update(id, row)
			e.logUndo(undoOp{kind: undoUpdate, table: t.name, rowid: id, row: prev})
		}
		res.RowsAffected += len(ids)
		if hits != nil {
			hits[r] = len(ids)
		}
	}
	return res, nil
}

func (e *Engine) execDelete(st deleteStmt, args []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	ids, err := e.matchIDs(t, st.Where, &evalCtx{tbl: t, args: args, spreadN: e.spreadN})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, id := range ids {
		row := t.delete(id)
		if row != nil {
			e.logUndo(undoOp{kind: undoDelete, table: t.name, rowid: id, row: row})
			res.RowsAffected++
		}
	}
	return res, nil
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
	ci, ok := ev.tbl.colIdx[c.Name]
	if !ok {
		return Value{}, fmt.Errorf("minisql: no column %q in table %q", c.Name, ev.tbl.name)
	}
	if ev.row == nil {
		return Value{}, fmt.Errorf("minisql: column %q referenced outside row context", c.Name)
	}
	return ev.row[ci], nil
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
	switch b.Op {
	case "AND":
		if !truthy(l) {
			return Int64(0), nil
		}
		r, err := b.R.eval(ev)
		if err != nil {
			return Value{}, err
		}
		return boolVal(truthy(r)), nil
	case "OR":
		if truthy(l) {
			return Int64(1), nil
		}
		r, err := b.R.eval(ev)
		if err != nil {
			return Value{}, err
		}
		return boolVal(truthy(r)), nil
	}
	r, err := b.R.eval(ev)
	if err != nil {
		return Value{}, err
	}
	// SQL three-valued logic: comparisons with NULL are false.
	if l.IsNull() || r.IsNull() {
		return Int64(0), nil
	}
	c := l.Compare(r)
	switch b.Op {
	case "=":
		return boolVal(c == 0), nil
	case "!=":
		return boolVal(c != 0), nil
	case "<":
		return boolVal(c < 0), nil
	case "<=":
		return boolVal(c <= 0), nil
	case ">":
		return boolVal(c > 0), nil
	case ">=":
		return boolVal(c >= 0), nil
	}
	return Value{}, fmt.Errorf("minisql: unknown operator %q", b.Op)
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

func (is *isNullExpr) eval(ev *evalCtx) (Value, error) {
	tv, err := is.Target.eval(ev)
	if err != nil {
		return Value{}, err
	}
	return boolVal(tv.IsNull() != is.Not), nil
}

func boolVal(b bool) Value {
	if b {
		return Int64(1)
	}
	return Int64(0)
}
