package minisql

import "sync"

// planCacheSize bounds the number of parsed statements kept per engine. The
// EMEWS hot paths cycle through a few dozen fixed statement texts (batched
// pops use the width-oblivious IN (?...) spread, one text for every width),
// so 512 is never reached by them; it only keeps a pathological ad-hoc
// workload from holding every statement it ever saw.
const planCacheSize = 512

// plan is one cached parse result: the immutable statement AST, its fixed
// positional-parameter count, and whether it contains a spread IN (?...)
// list. The AST is shared by every execution of the same SQL text — execution
// never mutates it (column binding happens at exec time against the live
// table, spread widths bind per execution), which is what makes the share
// safe.
type plan struct {
	stmt    any
	nparams int
	spread  bool
}

// planCache maps exact SQL text to its parsed statement. It has its own lock
// so Exec callers can hit the cache before taking the engine lock; the engine
// only calls purge (DDL, Restore) while holding its lock, and the lock order
// engine→cache is never reversed.
type planCache struct {
	mu  sync.Mutex
	ent map[string]plan

	cacheCounters // hit/miss/eviction telemetry (obs.go), atomics
}

func newPlanCache() *planCache {
	return &planCache{ent: make(map[string]plan)}
}

// get returns the cached plan for sql, if any.
func (c *planCache) get(sql string) (plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.ent[sql]
	return p, ok
}

// put stores a parse result. A new text arriving at the cap drops the whole
// map (each dropped plan counted as an eviction): only a workload of
// unbounded ad-hoc texts gets there, and for it no entry is worth more than
// another.
func (c *planCache) put(sql string, p plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ent[sql]; !ok && len(c.ent) >= planCacheSize {
		c.evictions.Add(uint64(len(c.ent)))
		c.ent = make(map[string]plan)
	}
	c.ent[sql] = p
}

// purge evicts everything. Called on DDL (CREATE/DROP TABLE, CREATE INDEX)
// and snapshot Restore: parsed ASTs are schema-independent today, but a plan
// that outlives the schema it was first executed against is a standing
// invitation for stale-binding bugs the moment plans grow binding state, so
// the cache is invalidated wholesale at every schema boundary.
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ent = make(map[string]plan)
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ent)
}

// cachedParse is parse through the engine's plan cache: each distinct SQL
// text is lexed and parsed once and the immutable AST reused, which removes
// the parser from every hot path (submit, pop, report re-execute the same
// handful of statements forever).
func (e *Engine) cachedParse(sql string) (plan, error) {
	if p, ok := e.plans.get(sql); ok {
		e.plans.hits.Add(1)
		return p, nil
	}
	e.plans.misses.Add(1)
	stmt, nparams, spread, err := parse(sql)
	if err != nil {
		return plan{}, err
	}
	p := plan{stmt: stmt, nparams: nparams, spread: spread}
	e.plans.put(sql, p)
	return p, nil
}
