package graph

// This file is the statistics and selectivity layer the Cypher planner
// consumes: O(1) cardinality estimates backed by the live indexes, degree
// statistics for expansion fan-out, and NodeID-granular access paths so
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

// DistinctLabels returns the number of distinct node types currently
// live in the store. O(1): the label index prunes empty postings, so
// its size is the live distinct-label count.
func (s *Store) DistinctLabels() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byType)
}

// DistinctNames returns the number of distinct node names currently live
// in the store. O(1) for the same reason as DistinctLabels.
func (s *Store) DistinctNames() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byName)
}

// HasAttrIndex reports whether IndexAttr was called for key.
func (s *Store) HasAttrIndex(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.indexed[s.syms.lookup(key)]
}

// IndexEpoch returns the store's per-mutation change counter: it
// increases every time a new attribute index is created AND on every
// effective mutation (node/edge creation, attribute writes, deletions,
// edge migration). It is a cheap has-anything-changed probe for
// diagnostics and tests; the plan cache keys on the coarser
// StatsVersion, and the durability layer consumes the mutation hook
// (SetMutationHook), not this counter.
func (s *Store) IndexEpoch() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idxEpoch
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

// statsSnapshot captures the planner-visible counts at the last stats
// version bump, so materiality is judged against what cached plans were
// actually costed with rather than against the previous mutation. Keys
// are interned symbols: snapshots are rebuilt on every bump, so symbol
// keys keep that rebuild allocation-light.
type statsSnapshot struct {
	nodes      int
	edges      int
	byLabel    map[Sym]int
	byEdgeType map[Sym]int
	// byAttrVals tracks the distinct-value count of each indexed
	// attribute and names the distinct-name count: AvgAttrBucket and
	// AvgNameBucket (= nodes / distinct values) are plan-time inputs, so
	// a key spreading from one value to thousands is a material change
	// even when no count above moves.
	byAttrVals map[Sym]int
	names      int
}

// statsDrift reports whether cur has moved materially away from base:
// more than 12.5% plus a small absolute slack, so single-row writes on a
// store of any size are never material but bulk shifts always are.
func statsDrift(cur, base int) bool {
	d := cur - base
	if d < 0 {
		d = -d
	}
	return d*8 > base+32
}

// statsMaterialLocked reports whether any planner-visible count has
// drifted materially since the last stats version bump. Callers hold the
// write lock. O(labels + edge types), both small in practice.
func (s *Store) statsMaterialLocked() bool {
	if statsDrift(s.nNodes, s.statsBase.nodes) || statsDrift(s.nEdges, s.statsBase.edges) {
		return true
	}
	for l, p := range s.byType {
		if statsDrift(p.n, s.statsBase.byLabel[l]) {
			return true
		}
	}
	for l, c := range s.statsBase.byLabel {
		if _, ok := s.byType[l]; !ok && statsDrift(0, c) {
			return true
		}
	}
	for t, c := range s.edgeTypeCount {
		if statsDrift(c, s.statsBase.byEdgeType[t]) {
			return true
		}
	}
	for t, c := range s.statsBase.byEdgeType {
		if _, ok := s.edgeTypeCount[t]; !ok && statsDrift(0, c) {
			return true
		}
	}
	for k := range s.indexed {
		if statsDrift(len(s.propIdx[k]), s.statsBase.byAttrVals[k]) {
			return true
		}
	}
	return statsDrift(len(s.byName), s.statsBase.names)
}

// bumpStatsLocked advances the stats version and re-snapshots the counts
// the next materiality judgement compares against. Degree histograms are
// cached per version (DegreeHistogram), so a bump implicitly retires
// them. Callers hold the write lock.
func (s *Store) bumpStatsLocked() {
	s.statsVersion++
	s.rebaseStatsLocked()
}

func (s *Store) rebaseStatsLocked() {
	base := statsSnapshot{
		nodes:      s.nNodes,
		edges:      s.nEdges,
		byLabel:    make(map[Sym]int, len(s.byType)),
		byEdgeType: make(map[Sym]int, len(s.edgeTypeCount)),
	}
	for l, p := range s.byType {
		base.byLabel[l] = p.n
	}
	for t, c := range s.edgeTypeCount {
		base.byEdgeType[t] = c
	}
	base.byAttrVals = make(map[Sym]int, len(s.indexed))
	for k := range s.indexed {
		base.byAttrVals[k] = len(s.propIdx[k])
	}
	base.names = len(s.byName)
	s.statsBase = base
}

// StatsVersion returns the planner-facing invalidation epoch: it
// advances when a planner-visible count changes materially (>12.5% plus
// slack on total nodes/edges, any single label / edge type count, the
// distinct-name count, or an indexed attribute's distinct-value count)
// and whenever IndexAttr creates a new access path. Unlike IndexEpoch — which
// counts every effective mutation — it stays put under write-heavy
// workloads whose store shape is roughly stable, which is what lets the
// shared plan cache keep serving prepared statements between bumps.
// Cached plans stay *correct* either way (access paths never become
// invalid); the version only protects optimality.
func (s *Store) StatsVersion() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsVersion
}

// --- degree histograms ---

// degreeKey identifies one cached histogram. Strings, not symbols: the
// cache is probed once per plan, and string keys keep unknown labels
// (which have no symbol) addressable without sentinel juggling.
type degreeKey struct {
	label    string
	edgeType string
	dir      Direction
}

type cachedHistogram struct {
	version int64
	hist    DegreeHistogram
}

// DegreeHistogram summarizes the fan-out of one (source label, edge
// type, direction) combination: how many sources exist, how many of them
// have at least one matching edge, the total/maximum degree, and a log2
// bucket profile (Buckets[i] counts sources with degree in
// [2^i, 2^(i+1))). It is what replaced the planner's uniform
// expand-factor assumption: the cost model reads Avg() — the measured
// mean fan-out of exactly the (label, type, direction) being expanded —
// while NonZero/Max/Buckets are the documented observability surface
// (ARCHITECTURE.md) and the inputs skew-aware costing (damping hub
// estimates by Max/AvgNonZero) will build on; they cost one shift loop
// per source at (cached, per-version) compute time.
type DegreeHistogram struct {
	Label    string    // "" = all nodes
	EdgeType string    // "" = all edge types
	Dir      Direction // Out, In or Both (Both counts each loop edge twice)
	Sources  int       // nodes carrying Label
	NonZero  int       // sources with degree >= 1
	Walks    int       // sum of per-source degrees (matching incidences)
	Max      int
	Buckets  []int
}

// Avg returns the mean degree over all sources (0 when there are none).
func (h DegreeHistogram) Avg() float64 {
	if h.Sources == 0 {
		return 0
	}
	return float64(h.Walks) / float64(h.Sources)
}

// AvgNonZero returns the mean degree over sources that have at least one
// matching edge — the fan-out a row that *did* expand sees.
func (h DegreeHistogram) AvgNonZero() float64 {
	if h.NonZero == 0 {
		return 0
	}
	return float64(h.Walks) / float64(h.NonZero)
}

// DegreeHistogram returns the (cached) degree histogram for the given
// source label ("" = all nodes), edge type ("" = all types) and
// direction. Histograms are computed lazily — O(sources + incident
// edges) over the packed adjacency — and cached per stats version, so
// plan-time lookups are O(1) between material changes of the store.
func (s *Store) DegreeHistogram(label, edgeType string, dir Direction) DegreeHistogram {
	ver := s.StatsVersion()
	key := degreeKey{label: label, edgeType: edgeType, dir: dir}
	s.histMu.Lock()
	if c, ok := s.histCache[key]; ok && c.version == ver {
		s.histMu.Unlock()
		return c.hist
	}
	s.histMu.Unlock()
	h := s.computeDegreeHistogram(label, edgeType, dir)
	s.histMu.Lock()
	if s.histCache == nil {
		s.histCache = make(map[degreeKey]cachedHistogram)
	}
	s.histCache[key] = cachedHistogram{version: ver, hist: h}
	s.histMu.Unlock()
	return h
}

func (s *Store) computeDegreeHistogram(label, edgeType string, dir Direction) DegreeHistogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := DegreeHistogram{Label: label, EdgeType: edgeType, Dir: dir}
	anyType := edgeType == ""
	want := Sym(0)
	if !anyType {
		want = s.syms.lookup(edgeType)
	}
	add := func(id NodeID) {
		h.Sources++
		d := s.adj.degree(id, dir, want, anyType)
		if d == 0 {
			return
		}
		h.NonZero++
		h.Walks += d
		if d > h.Max {
			h.Max = d
		}
		b := 0
		for v := d; v > 1; v >>= 1 {
			b++
		}
		for len(h.Buckets) <= b {
			h.Buckets = append(h.Buckets, 0)
		}
		h.Buckets[b]++
	}
	if label == "" {
		for id, rec := range s.nodes {
			if rec.n != nil {
				add(NodeID(id))
			}
		}
	} else {
		for id := range s.byType[s.syms.lookup(label)].all() {
			add(id)
		}
	}
	return h
}

// DegreeStats returns the average and maximum degree over all nodes in
// the given direction (Both counts each edge at both endpoints).
func (s *Store) DegreeStats(dir Direction) (avg float64, max int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.nNodes == 0 {
		return 0, 0
	}
	total := 0
	for id, rec := range s.nodes {
		if rec.n == nil {
			continue
		}
		d := s.adj.degree(NodeID(id), dir, 0, true)
		total += d
		if d > max {
			max = d
		}
	}
	return float64(total) / float64(s.nNodes), max
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
