package graph

import "math/bits"

// This file is the statistics and selectivity layer the Cypher planner
// consumes: O(1) cardinality estimates backed by the live indexes, live
// endpoint counts for expansion fan-out, and NodeID-granular access paths so
// the streaming executor can pull nodes lazily instead of materializing
// full candidate slices up front. Planner-facing string inputs resolve
// through the symbol table with lookup (never intern): probing for a
// label or key the store has never seen must not grow the table.

// CountNodes returns the number of nodes in the store.
func (s *Store) CountNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nNodes
}

// CountEdges returns the number of edges in the store.
func (s *Store) CountEdges() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nEdges
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

// CountEdgesByType returns the number of edges with the given type.
func (s *Store) CountEdgesByType(typ string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.edgeTypeCount[s.syms.lookup(typ)]
}

// HasAttrIndex reports whether IndexAttr was called for key.
func (s *Store) HasAttrIndex(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.indexed[s.syms.lookup(key)]
}

// AvgNameBucket returns the average number of nodes sharing one name —
// the planner's default selectivity for a name seek whose key is a
// query parameter (unknown until bind time). O(1): the name index prunes
// empty buckets.
func (s *Store) AvgNameBucket() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.byName) == 0 {
		return 1
	}
	return float64(s.nNodes) / float64(len(s.byName))
}

// AvgAttrBucket returns the average number of nodes per distinct value
// of an indexed attribute (ok=false when the attribute is not indexed)
// — the stats default for parameter-valued attribute seeks. O(1): the
// store keeps a live count of nodes carrying each indexed key, so no
// per-value scan happens at plan time.
func (s *Store) AvgAttrBucket(key string) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if !s.indexed[ks] {
		return 0, false
	}
	buckets := len(s.propIdx[ks])
	if buckets == 0 {
		return 1, true
	}
	return float64(s.propIdxSize[ks]) / float64(buckets), true
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

// AvgDegree returns the mean number of edges of edgeType ("" = any type)
// that a node labelled label ("" = any node) has on side dir: the
// planner's fan-out for one hop. Both is out plus in, so a self-loop
// counts twice. O(1): the store counts edge endpoints per (label, type,
// side) as edges come and go. 0 when no node carries the label.
func (s *Store) AvgDegree(label, edgeType string, dir Direction) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sources int
	var ends [2]int
	if label == "" {
		sources = s.nNodes
		n := s.nEdges
		if edgeType != "" {
			n = s.edgeTypeCount[s.syms.lookup(edgeType)]
		}
		ends = [2]int{n, n}
	} else {
		l := s.syms.lookup(label)
		sources = s.byType[l].n
		c := s.labelDeg[l]
		if edgeType != "" {
			c = s.endDeg[endKeyOf(l, s.syms.lookup(edgeType))]
		}
		if c != nil {
			ends = *c
		}
	}
	if sources == 0 {
		return 0
	}
	walks := ends[Out] + ends[In]
	if dir != Both {
		walks = ends[dir]
	}
	return float64(walks) / float64(sources)
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

// AllNodeIDs returns every node ID, sorted.
func (s *Store) AllNodeIDs() []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveNodeIDsLocked()
}

// NodeIDsByType returns the IDs of nodes with the given type, sorted.
func (s *Store) NodeIDsByType(typ string) []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byType[s.syms.lookup(typ)].ids()
}

// NodeIDsByName returns the IDs of nodes with the given name, sorted.
func (s *Store) NodeIDsByName(name string) []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byName[name].ids()
}

// NodeIDsByAttr returns the IDs of nodes with attrs[key] == val via the
// attribute index; nil when the attribute is not indexed.
func (s *Store) NodeIDsByAttr(key, val string) []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if !s.indexed[ks] {
		return nil
	}
	return s.propIdx[ks][val].ids()
}

// NodeIDsByTypeAttr returns the IDs of nodes of the given type with
// attrs[key] == val via the composite index; nil when the attribute is
// not indexed.
func (s *Store) NodeIDsByTypeAttr(typ, key, val string) []NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if !s.indexed[ks] {
		return nil
	}
	return s.typeAttr[typeAttrKeyT{typ: s.syms.lookup(typ), key: ks, val: val}].ids()
}

// NodesByTypeAttr returns the nodes of the given type with
// attrs[key] == val. Uses the composite index when available, otherwise
// scans. The records are shared and immutable — read-only.
func (s *Store) NodesByTypeAttr(typ, key, val string) []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if s.indexed[ks] {
		return s.nodesOfLocked(s.typeAttr[typeAttrKeyT{typ: s.syms.lookup(typ), key: ks, val: val}])
	}
	var out []*Node
	for id := range s.byType[s.syms.lookup(typ)].all() {
		if n := s.nodes[id].n; n.Attrs.Get(key) == val {
			out = append(out, n)
		}
	}
	return out
}
