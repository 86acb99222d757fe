package minisql

import (
	"fmt"
	"sync"
)

// planCacheSize bounds the ad-hoc statement texts the engine keeps compiled:
// those first met by ApplyEntry rather than Prepare. A new
// text arriving at the bound drops them all. Only a workload of unbounded
// ad-hoc texts gets there; the EMEWS statements are prepared, and prepared
// handles are never dropped.
const planCacheSize = 512

// Prepared is one statement compiled once per engine. Engine.Prepare parses
// it; its first run in each schema epoch binds it — the table, every column
// reference as a position, the SET, INSERT and projection positions, the
// index its WHERE clause's first indexable conjunct probes, and the ordered
// index an ORDER BY ... LIMIT reads — and every later run in that epoch
// executes the bound plan with no lookup by name. DDL and Restore start a new
// epoch; a handle bound in an older one re-binds at its next run.
//
// Tx.Run executes a write through a handle, Tx.Query streams a read's rows,
// Tx.Count answers a SELECT COUNT(*). A handle belongs to the engine that
// prepared it; everything past the parse is owned by that engine's lock.
type Prepared struct {
	e        *Engine
	sql      string
	stmt     any
	nparams  int  // fixed `?` parameters
	spread   bool // has an IN (?...) list, which absorbs the arguments beyond nparams
	mutating bool // logged when it commits
	query    bool // a SELECT
	count    bool // a SELECT COUNT(*)

	// Under the engine lock.
	epoch uint64  // the schema epoch b was bound in; 0 before the first run
	b     bound   // the plan for that epoch
	ev    evalCtx // the running execution's context
	args  []Value // a read's copy of its arguments
	ids   []int64 // candidate rowids, reused across runs
	row   []Value // the projected row a read streams, or an UPDATE's SET values
}

// bound is a statement bound to one schema epoch: everything its execution
// needs that does not depend on its arguments.
type bound struct {
	err   error  // binding failed (no such table or column): every run this epoch fails with it
	t     *table // nil for DDL
	where expr   // WHERE with its column references bound; nil when absent
	probe probe  // narrows the rows where is evaluated on
	card  probe  // the first `col = const` conjunct: orderedTopN's selectivity check
	// countIx: a COUNT(*) whose whole WHERE is probe's `col = const`, answered
	// from the size of the index's rowid set.
	countIx bool

	pos   []int      // SELECT projection, INSERT target or UPDATE SET column positions
	set   []expr     // UPDATE SET values
	rows  [][]expr   // INSERT VALUES rows
	order []orderPos // ORDER BY keys
	limit expr       // nil when absent

	// top is the ordered index an ORDER BY ... LIMIT reads its top n off (nil:
	// scan and sort); stream says its sorted side carries the whole query order.
	top    *hashIndex
	stream bool
}

type orderPos struct {
	pos  int
	desc bool
}

// probe is an index access that narrows the rows a WHERE clause is evaluated
// on: `col = key` or `col IN (...)` on a column with a single-column index.
// The zero probe has no index: the caller scans.
type probe struct {
	ix  *hashIndex
	typ ColType // the key column's declared type, which probes are coerced to
	key expr    // col = key
	in  *inExpr // col IN (...); nil for an equality
}

// planCache is the engine's text index: SQL text to its compiled handle. It
// has its own lock so Prepare takes no engine lock. ApplyEntry resolves its
// texts under the engine lock; the order engine → cache is never reversed.
type planCache struct {
	mu     sync.Mutex
	pinned map[string]*Prepared // made by Prepare: never dropped
	adhoc  map[string]*Prepared // first met by text: dropped whole at planCacheSize

	cacheCounters // hit/miss/eviction telemetry (obs.go), atomics
}

func newPlanCache() *planCache {
	return &planCache{pinned: make(map[string]*Prepared), adhoc: make(map[string]*Prepared)}
}

// len reports the number of compiled statements held.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pinned) + len(c.adhoc)
}

// get returns the handle held for sql, moving an ad-hoc one to the pinned
// set when pin is set.
func (c *planCache) get(sql string, pin bool) (*Prepared, bool) {
	if h, ok := c.pinned[sql]; ok {
		return h, true
	}
	h, ok := c.adhoc[sql]
	if ok && pin {
		delete(c.adhoc, sql)
		c.pinned[sql] = h
	}
	return h, ok
}

// text returns the SQL text b names: the pinned handle's own string when
// the engine prepared that text, else a copy.
func (c *planCache) text(b []byte) string {
	c.mu.Lock()
	h, ok := c.pinned[string(b)]
	c.mu.Unlock()
	if ok {
		return h.sql
	}
	return string(b)
}

// Prepare compiles sql once for this engine and returns its handle, pinned:
// the text index never drops it, so ApplyEntry resolves a record carrying the
// same text to this handle. Preparing a text twice returns the same handle.
// The statement binds to the schema at its first run, not here, so a handle
// may be prepared before the tables it names exist.
func (e *Engine) Prepare(sql string) (*Prepared, error) {
	return e.lookup(sql, true)
}

// lookup resolves sql to its handle, parsing it on first sight. A replay by
// text (pin false) counts as a hit when the text was compiled already and as
// a miss when it had to be parsed.
func (e *Engine) lookup(sql string, pin bool) (*Prepared, error) {
	c := e.plans
	c.mu.Lock()
	h, ok := c.get(sql, pin)
	c.mu.Unlock()
	if ok {
		if !pin {
			c.hits.Add(1)
		}
		return h, nil
	}
	if !pin {
		c.misses.Add(1)
	}
	stmt, nparams, spread, err := parse(sql)
	if err != nil {
		return nil, err
	}
	h = &Prepared{e: e, sql: sql, stmt: stmt, nparams: nparams, spread: spread, mutating: isMutating(stmt)}
	if st, ok := stmt.(selectStmt); ok {
		h.query, h.count = true, st.Count
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.get(sql, pin); ok {
		return prev, nil // compiled concurrently: one handle per text
	}
	switch {
	case pin:
		c.pinned[sql] = h
	case len(c.adhoc) >= planCacheSize:
		c.evictions.Add(uint64(len(c.adhoc)))
		c.adhoc = map[string]*Prepared{sql: h}
	default:
		c.adhoc[sql] = h
	}
	return h, nil
}

// spreadWidth checks an execution's argument count against the statement — a
// statement without a spread takes exactly its parameter count: surplus
// arguments would read as further argument rows once logged — and returns how
// many arguments the spread absorbs.
func (h *Prepared) spreadWidth(nargs int) (int, error) {
	if nargs < h.nparams || (!h.spread && nargs > h.nparams) {
		return 0, fmt.Errorf("minisql: statement has %d parameters, %d arguments given (in %q)",
			h.nparams, nargs, compactSQL(h.sql))
	}
	return nargs - h.nparams, nil
}

// argRows reports how many whole argument rows nargs arguments make for a
// set-based execution (Tx.RunRows, or its logged Stmt replayed).
func (h *Prepared) argRows(nargs int) (int, error) {
	if h.spread || h.nparams == 0 || nargs == 0 || nargs%h.nparams != 0 {
		return 0, fmt.Errorf("minisql: %d arguments are not whole rows of the statement's %d fixed parameters (in %q)",
			nargs, h.nparams, compactSQL(h.sql))
	}
	return nargs / h.nparams, nil
}

// bindLocked returns h's plan for the current schema epoch, binding it first
// when the schema changed since its last run.
func (e *Engine) bindLocked(h *Prepared) *bound {
	if h.epoch != e.epoch {
		h.b = bind(e.tables, h.stmt)
		h.row = make([]Value, max(1, len(h.b.pos)))
		h.epoch = e.epoch
	}
	return &h.b
}

// bind resolves a DML statement against tables.
func bind(tables map[string]*table, stmt any) (b bound) {
	var name string
	var where expr
	switch st := stmt.(type) {
	case insertStmt:
		name = st.Table
	case selectStmt:
		name, where = st.Table, st.Where
	case updateStmt:
		name, where = st.Table, st.Where
	case deleteStmt:
		name, where = st.Table, st.Where
	default:
		return b
	}
	t, ok := tables[name]
	if !ok {
		b.err = fmt.Errorf("%w: %q", ErrNoSuchTable, name)
		return b
	}
	b.t = t
	b.where = bindExpr(t, where)
	conj := flattenAnd(b.where)
	b.probe = firstProbe(t, conj)
	for _, c := range conj {
		if ix, key := eqIndex(t, c); ix != nil {
			b.card = probe{ix: ix, typ: t.cols[ix.cols[0]].Type, key: key}
			break
		}
	}
	switch st := stmt.(type) {
	case insertStmt:
		b.err = b.bindInsert(st)
	case selectStmt:
		b.err = b.bindSelect(st)
	case updateStmt:
		b.pos = make([]int, len(st.Set))
		b.set = make([]expr, len(st.Set))
		for i, a := range st.Set {
			if b.pos[i], b.err = t.col(a.Col); b.err != nil {
				break
			}
			b.set[i] = bindExpr(t, a.Val)
		}
	}
	return b
}

func (b *bound) bindInsert(st insertStmt) error {
	t := b.t
	cols := st.Cols
	if len(cols) == 0 {
		cols = make([]string, len(t.cols))
		for i, c := range t.cols {
			cols[i] = c.Name
		}
	}
	b.pos = make([]int, len(cols))
	for i, c := range cols {
		var err error
		if b.pos[i], err = t.col(c); err != nil {
			return err
		}
	}
	b.rows = make([][]expr, len(st.Rows))
	for i, exprRow := range st.Rows {
		if len(exprRow) != len(cols) {
			return fmt.Errorf("minisql: INSERT into %q has %d values for %d columns",
				st.Table, len(exprRow), len(cols))
		}
		b.rows[i] = make([]expr, len(exprRow))
		for j, ex := range exprRow {
			b.rows[i][j] = bindExpr(t, ex)
		}
	}
	return nil
}

func (b *bound) bindSelect(st selectStmt) error {
	t := b.t
	if st.Count {
		// ORDER BY and LIMIT do not change a count, and are not bound.
		ix, _ := eqIndex(t, b.where)
		b.countIx = ix != nil
		return nil
	}
	for _, name := range st.Cols {
		ci, err := t.col(name)
		if err != nil {
			return err
		}
		b.pos = append(b.pos, ci)
	}
	b.order = make([]orderPos, len(st.OrderBy))
	for i, k := range st.OrderBy {
		ci, err := t.col(k.Col)
		if err != nil {
			return err
		}
		b.order[i] = orderPos{pos: ci, desc: k.Desc}
	}
	b.limit = bindExpr(t, st.Limit)
	if len(b.order) == 0 || b.limit == nil {
		return nil
	}
	// Index selection: among ordered indexes leading with the first ORDER BY
	// column, prefer a composite whose second column continues the ORDER BY
	// ascending — its sorted side carries the full query order, so the scan
	// streams matches and stops at n even when every row shares one first-key
	// value (the uniform-priority queue case, where a single-column index
	// degenerates into one whole-table run). A composite whose second column
	// does not match the query is unusable here: its within-run order is not
	// the insertion order the fallback sort would produce.
	var single *hashIndex
	for _, cand := range t.indexes {
		if !cand.ordered || cand.cols[0] != b.order[0].pos {
			continue
		}
		if len(cand.cols) == 1 {
			single = cand
			continue
		}
		if len(b.order) == 2 && cand.cols[1] == b.order[1].pos && !b.order[1].desc {
			b.top, b.stream = cand, true
		}
	}
	if b.top == nil {
		b.top = single
	}
	return nil
}

// col returns the position of column name.
func (t *table) col(name string) (int, error) {
	ci, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("minisql: no column %q in table %q", name, t.name)
	}
	return ci, nil
}

// bindExpr copies a parsed expression with its column references resolved
// against t. Literals and parameters are immutable and shared.
func bindExpr(t *table, ex expr) expr {
	switch x := ex.(type) {
	case *colRef:
		pos, ok := t.colIdx[x.Name]
		if !ok {
			pos = -1
		}
		return &colRef{Name: x.Name, Table: t.name, Pos: pos}
	case *binExpr:
		return &binExpr{Op: x.Op, L: bindExpr(t, x.L), R: bindExpr(t, x.R)}
	case *inExpr:
		in := *x
		in.Target = bindExpr(t, x.Target)
		in.List = make([]expr, len(x.List))
		for i, le := range x.List {
			in.List[i] = bindExpr(t, le)
		}
		return &in
	}
	return ex
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

// firstProbe picks the first top-level conjunct an index serves: `col =
// const`, or `col IN (...)` on an indexed column. An IN list holding a column
// reference cannot be evaluated before a row is at hand, so it leaves the
// clause to a scan.
func firstProbe(t *table, conj []expr) probe {
	for _, c := range conj {
		if ix, key := eqIndex(t, c); ix != nil {
			return probe{ix: ix, typ: t.cols[ix.cols[0]].Type, key: key}
		}
		in, ok := c.(*inExpr)
		if !ok {
			continue
		}
		cr, ok := in.Target.(*colRef)
		if !ok {
			continue
		}
		ix := t.indexes[cr.Name]
		if ix == nil {
			continue
		}
		for _, le := range in.List {
			if _, ok := le.(*colRef); ok {
				return probe{}
			}
		}
		return probe{ix: ix, typ: t.cols[ix.cols[0]].Type, in: in}
	}
	return probe{}
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
