package graph

import "math/bits"

// This file is the statistics and selectivity layer the Cypher planner
// consumes: O(1) cardinality estimates backed by the live indexes and
// counts, and NodeID-granular access paths so the streaming executor can
// pull nodes lazily instead of materializing full candidate slices up
// front. Planner-facing string inputs resolve through the symbol table
// with lookup (never intern): probing for a label or key the store has
// never seen must not grow the table.

// CountNodes returns the number of nodes in the store.
func (s *Store) CountNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nNodes
}

// CountByType returns the number of nodes with the given type (label).
func (s *Store) CountByType(typ string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byType[s.syms.lookup(typ)].n
}

// CountByName returns the number of nodes whose Name equals name.
func (s *Store) CountByName(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byName[name].n
}

// CountByTypeName returns 0 or 1: whether a node with the exact
// (type, name) pair exists. Storage-time merging makes this pair unique.
func (s *Store) CountByTypeName(typ, name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.findLocked(s.syms.lookup(typ), name); ok {
		return 1
	}
	return 0
}

// CountByAttr returns the number of nodes with attrs[key] == val. The
// count is exact (ok=true) only when the attribute is indexed; otherwise
// ok=false and the caller must fall back to a scan estimate.
func (s *Store) CountByAttr(key, val string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if !s.indexed[ks] {
		return 0, false
	}
	return s.propIdx[ks][val].n, true
}

// CountByTypeAttr returns the number of nodes of the given type with
// attrs[key] == val, using the composite (type, key, val) index. ok=false
// when the attribute is not indexed.
func (s *Store) CountByTypeAttr(typ, key, val string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if !s.indexed[ks] {
		return 0, false
	}
	return s.typeAttr[typeAttrKeyT{typ: s.syms.lookup(typ), key: ks, val: val}].n, true
}

// HasAttrIndex reports whether IndexAttr was called for key.
func (s *Store) HasAttrIndex(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.indexed[s.syms.lookup(key)]
}

// --- stats version: the planner-facing invalidation epoch ---

// noteSizeLocked advances the stats version when the store has changed
// size class — bits.Len of its node plus edge count, so a doubling or a
// halving since the last bump. One compare: every write path runs it.
// Callers hold the write lock.
func (s *Store) noteSizeLocked() {
	if c := bits.Len(uint(s.nNodes + s.nEdges)); c != s.sizeClass {
		s.sizeClass = c
		s.statsVersion++
	}
}

// StatsVersion returns the planner-facing invalidation epoch. It advances
// in exactly two cases: IndexAttr creates a new access path, or the store
// changes size class (its node plus edge count doubles or halves since
// the last bump). Writes inside a size class never move it, whatever
// they do to a single label's or edge type's count, which is what lets
// the shared plan cache keep serving prepared statements under a steady
// write load.
// Cached plans stay *correct* either way (access paths never become
// invalid); the version only decides when a plan is costed again.
func (s *Store) StatsVersion() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsVersion
}

// --- NodeID access paths for lazy scans ---

// liveNodeIDsLocked lists the slab's occupied slots: every node ID,
// ascending, in a slice the caller owns.
func (s *Store) liveNodeIDsLocked() []NodeID {
	out := make([]NodeID, 0, s.nNodes)
	for id, rec := range s.nodes {
		if rec.n != nil {
			out = append(out, NodeID(id))
		}
	}
	return out
}
