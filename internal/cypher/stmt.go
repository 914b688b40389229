package cypher

import "fmt"

// Stmt is a prepared statement: the query is parsed once at Prepare and
// planned once into the store-shared plan cache, so executing it with N
// different parameter bindings costs N cache lookups, not N parses and
// plans. The plan is cached by query text — the $parameter placeholders
// stay in the text, which is what lets one entry serve every binding.
//
//	stmt, _ := eng.Prepare(`match (m {name: $ioc})-[:CONNECT*1..2]-(x) return x.name`)
//	for _, ioc := range observed {
//		rows, _ := stmt.QueryRows(map[string]any{"ioc": ioc})
//		err := rows.Drain(func(row []cypher.Value) error { ... })
//	}
type Stmt struct {
	e   *Engine
	src string
	key string // precomputed plan-cache key
	q   *Query
}

// Prepare parses src and (unless it is an EXPLAIN) plans it into the
// shared cache, returning a statement that can be executed any number
// of times with different parameter bindings.
func (e *Engine) Prepare(src string) (*Stmt, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if q.TxOp != TxNone {
		return nil, errTxControl
	}
	if len(q.Parts) == 0 {
		return nil, fmt.Errorf("cypher: empty query")
	}
	if fin := &q.Parts[len(q.Parts)-1]; len(fin.Items) == 0 && !fin.HasWrites() {
		return nil, fmt.Errorf("cypher: empty RETURN")
	}
	st := &Stmt{e: e, src: src, key: e.cacheKey(src), q: q}
	if !q.Explain {
		if _, err := st.plan(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// plan fetches the statement's plan from the shared cache, re-planning
// (without re-parsing) when the cache evicted it or the store drifted
// past the entry's validity bounds.
func (s *Stmt) plan() (*Plan, error) {
	if pl := s.e.cache.get(s.key, s.e.store); pl != nil {
		return pl, nil
	}
	pl, err := s.e.planQuery(s.q)
	if err != nil {
		return nil, err
	}
	s.e.cache.put(s.key, pl, s.e.store)
	return pl, nil
}

// QueryRows executes the statement with the given bindings and returns
// a streaming cursor.
func (s *Stmt) QueryRows(args map[string]any) (*Rows, error) {
	if s.q.Explain {
		return s.e.QueryRows(s.src, args)
	}
	pl, err := s.plan()
	if err != nil {
		return nil, err
	}
	ps, err := bindParams(pl.Params, args)
	if err != nil {
		return nil, err
	}
	return s.e.runPlan(pl, ps, nil)
}

// Query executes the statement with the given bindings and materializes
// the full result, bounded by the byte budget like Engine.Query.
func (s *Stmt) Query(args map[string]any) (*Result, error) {
	rows, err := s.QueryRows(args)
	if err != nil {
		return nil, err
	}
	return materialize(rows)
}
