// Package relstore is the minimal relational backend behind the pipeline's
// SQL connector: typed tables with named string columns, insertion,
// equality selection, and optional hash indexes. The paper's point is that
// connectors are swappable — users who "care less about multi-hop
// relations" can store the knowledge relationally instead of in Neo4j.
package relstore

import (
	"fmt"
	"sync"
)

// Row is one record keyed by column name.
type Row map[string]string

// Table is a named relation.
type Table struct {
	name    string
	cols    []string
	colSet  map[string]bool
	rows    []Row
	indexes map[string]map[string][]int // col -> value -> row ids
}

// Store is a collection of tables, safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New creates an empty store.
func New() *Store { return &Store{tables: make(map[string]*Table)} }

// CreateTable defines a new table with the given columns.
func (s *Store) CreateTable(name string, cols ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("relstore: table %q already exists", name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("relstore: table %q needs at least one column", name)
	}
	t := &Table{name: name, cols: append([]string{}, cols...),
		colSet: make(map[string]bool), indexes: make(map[string]map[string][]int)}
	for _, c := range cols {
		if t.colSet[c] {
			return fmt.Errorf("relstore: duplicate column %q", c)
		}
		t.colSet[c] = true
	}
	s.tables[name] = t
	return nil
}

// CreateIndex builds (or rebuilds) a hash index on one column.
func (s *Store) CreateIndex(table, col string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("relstore: no table %q", table)
	}
	if !t.colSet[col] {
		return fmt.Errorf("relstore: table %q has no column %q", table, col)
	}
	idx := make(map[string][]int)
	for i, r := range t.rows {
		idx[r[col]] = append(idx[r[col]], i)
	}
	t.indexes[col] = idx
	return nil
}

// Insert appends one row. Unknown columns are rejected; missing columns
// default to "".
func (s *Store) Insert(table string, row Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("relstore: no table %q", table)
	}
	for c := range row {
		if !t.colSet[c] {
			return fmt.Errorf("relstore: table %q has no column %q", table, c)
		}
	}
	stored := make(Row, len(t.cols))
	for _, c := range t.cols {
		stored[c] = row[c]
	}
	id := len(t.rows)
	t.rows = append(t.rows, stored)
	for col, idx := range t.indexes {
		idx[stored[col]] = append(idx[stored[col]], id)
	}
	return nil
}

// Select returns rows matching every equality predicate in where (all rows
// when where is empty). Indexed columns accelerate the lookup.
func (s *Store) Select(table string, where Row) ([]Row, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", table)
	}
	for c := range where {
		if !t.colSet[c] {
			return nil, fmt.Errorf("relstore: table %q has no column %q", table, c)
		}
	}
	// Choose the most selective available index.
	candidates := -1
	var rowIDs []int
	for col, val := range where {
		if idx, ok := t.indexes[col]; ok {
			ids := idx[val]
			if candidates < 0 || len(ids) < candidates {
				candidates = len(ids)
				rowIDs = ids
			}
		}
	}
	match := func(r Row) bool {
		for c, v := range where {
			if r[c] != v {
				return false
			}
		}
		return true
	}
	var out []Row
	if candidates >= 0 {
		for _, id := range rowIDs {
			if match(t.rows[id]) {
				out = append(out, copyRow(t.rows[id]))
			}
		}
		return out, nil
	}
	for _, r := range t.rows {
		if match(r) {
			out = append(out, copyRow(r))
		}
	}
	return out, nil
}

// Count returns the number of rows in a table.
func (s *Store) Count(table string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return 0, fmt.Errorf("relstore: no table %q", table)
	}
	return len(t.rows), nil
}

func copyRow(r Row) Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}
