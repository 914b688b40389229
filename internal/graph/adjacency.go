package graph

import "slices"

// CSR-style adjacency: incidence is stored as two packed, ID-sorted
// arrays of (edge ID, far endpoint, type symbol) triples — one for
// out-edges grouped by source, one for in-edges grouped by target —
// with per-node offset tables indexed directly by NodeID. Walking a
// node's incident edges of one type is then a contiguous array scan
// with a 4-byte symbol compare per edge: no incidence-map hop, no
// per-edge record lookup (the endpoint and type ride in the triple),
// and no sort (triples are packed in ascending edge-ID order).
//
// Mutations do not rewrite the packed base. Edges created after the
// last rebuild go to small per-node delta lists; edges deleted from the
// base go to a tombstone set. Because edge IDs are allocated
// monotonically, every delta edge ID is greater than every base edge
// ID, so base-then-delta iteration stays globally ascending. Once the
// overlay grows past a fraction of the base the store rebuilds the
// packed arrays in one O(V + E) pass over the edge slab (which is in
// edge-ID order, so the rebuild never sorts) — epoch-batched
// compaction, amortized O(1) per mutation — so long-lived mixed
// workloads converge back to pure array scans. One threshold rules
// every writer: a write checks it after each adjacency change, and a
// load bracket (BeginBulk/EndBulk: recovery, a boot ingest) checks it
// once when it seals. A commit group therefore costs O(group) — its
// edges stay in the delta — unless it pushes the overlay past the
// threshold, and a load past the threshold packs once, at the end.

// halfEdge is one packed incidence triple: the edge, the endpoint on
// the far side (equal to the near node for self-loops), and the edge's
// interned type.
type halfEdge struct {
	id    EdgeID
	other NodeID
	typ   Sym
}

// adjHalf is one direction's packed incidence: off[id]..off[id+1]
// bounds node id's triples inside ids. Nodes created after the rebuild
// fall past len(off)-1 and live only in the delta.
type adjHalf struct {
	off   []uint32
	ids   []halfEdge
	delta map[NodeID][]halfEdge
}

// base returns node id's packed triples (nil when the node is past the
// base high-water mark or has none).
func (h *adjHalf) base(id NodeID) []halfEdge {
	if id >= 0 && int(id)+1 < len(h.off) {
		return h.ids[h.off[id]:h.off[id+1]]
	}
	return nil
}

// adjacency is the full two-sided incidence structure plus the shared
// mutation overlay bookkeeping.
type adjacency struct {
	out adjHalf
	in  adjHalf
	// baseMaxEdge is the highest edge ID packed into the base arrays;
	// anything greater lives in the deltas, so membership is a compare.
	baseMaxEdge EdgeID
	// dead tombstones base-resident edges deleted since the rebuild.
	dead map[EdgeID]struct{}
	// pending counts overlay entries (delta adds + tombstones) since the
	// last rebuild; the rebuild threshold compares it to the base size.
	pending int
}

func newAdjacency() *adjacency {
	return &adjacency{
		out:  adjHalf{delta: make(map[NodeID][]halfEdge)},
		in:   adjHalf{delta: make(map[NodeID][]halfEdge)},
		dead: make(map[EdgeID]struct{}),
	}
}

// addEdge registers a new edge. The caller guarantees id is greater
// than every previously added edge ID (the store's allocator is
// monotonic), which is what keeps delta lists ascending.
func (a *adjacency) addEdge(id EdgeID, from, to NodeID, typ Sym) {
	a.out.delta[from] = append(a.out.delta[from], halfEdge{id: id, other: to, typ: typ})
	a.in.delta[to] = append(a.in.delta[to], halfEdge{id: id, other: from, typ: typ})
	a.pending += 2
}

// removeEdge unregisters an edge: delta-resident edges are cut out of
// their lists, base-resident edges are tombstoned.
func (a *adjacency) removeEdge(id EdgeID, from, to NodeID) {
	if id > a.baseMaxEdge {
		a.out.delta[from] = cutHalfEdge(a.out.delta[from], id)
		if len(a.out.delta[from]) == 0 {
			delete(a.out.delta, from)
		}
		a.in.delta[to] = cutHalfEdge(a.in.delta[to], id)
		if len(a.in.delta[to]) == 0 {
			delete(a.in.delta, to)
		}
		return
	}
	a.dead[id] = struct{}{}
	a.pending += 2
}

func cutHalfEdge(hes []halfEdge, id EdgeID) []halfEdge {
	for i, he := range hes {
		if he.id == id {
			return append(hes[:i], hes[i+1:]...)
		}
	}
	return hes
}

// removeNode drops a node's delta lists. The caller has already removed
// every incident edge, so the base ranges (if any) are fully tombstoned.
func (a *adjacency) removeNode(id NodeID) {
	delete(a.out.delta, id)
	delete(a.in.delta, id)
}

// forEach visits node id's incident triples in dir, out before in for
// Both, each block in ascending edge-ID order. fn returning false stops
// the walk. Self-loops are visited once per direction (so twice under
// Both), matching the store's historical Edges semantics.
func (a *adjacency) forEach(id NodeID, dir Direction, fn func(halfEdge) bool) {
	if dir == Out || dir == Both {
		if !a.walkHalf(&a.out, id, fn) {
			return
		}
	}
	if dir == In || dir == Both {
		a.walkHalf(&a.in, id, fn)
	}
}

func (a *adjacency) walkHalf(h *adjHalf, id NodeID, fn func(halfEdge) bool) bool {
	if hes := h.base(id); len(hes) > 0 {
		if len(a.dead) == 0 {
			for _, he := range hes {
				if !fn(he) {
					return false
				}
			}
		} else {
			for _, he := range hes {
				if _, gone := a.dead[he.id]; gone {
					continue
				}
				if !fn(he) {
					return false
				}
			}
		}
	}
	for _, he := range h.delta[id] {
		if !fn(he) {
			return false
		}
	}
	return true
}

// needsRebuild reports whether the overlay has grown past the batch
// threshold: small absolute slack so bursts of writes on small graphs
// don't thrash, proportional beyond that so rebuild work amortizes.
func (a *adjacency) needsRebuild() bool {
	return a.pending > 128 && a.pending > len(a.out.ids)/2
}

// rebuildAdjLocked repacks both halves from the edge slab. Called under
// the store's write lock.
func (s *Store) rebuildAdjLocked() {
	slots := len(s.nodes) + 1 // every endpoint is a live node, so inside the slab
	outOff := make([]uint32, slots)
	inOff := make([]uint32, slots)
	for _, e := range s.edges {
		if e.e != nil {
			outOff[e.from+1]++
			inOff[e.to+1]++
		}
	}
	for i := 1; i < slots; i++ {
		outOff[i] += outOff[i-1]
		inOff[i] += inOff[i-1]
	}
	outIDs := make([]halfEdge, s.nEdges)
	inIDs := make([]halfEdge, s.nEdges)
	outCur := slices.Clone(outOff)
	inCur := slices.Clone(inOff)
	// Filling in ascending edge-ID order keeps every per-node range
	// ascending without a per-bucket sort.
	for id, e := range s.edges {
		if e.e != nil {
			outIDs[outCur[e.from]] = halfEdge{id: EdgeID(id), other: e.to, typ: e.typ}
			outCur[e.from]++
			inIDs[inCur[e.to]] = halfEdge{id: EdgeID(id), other: e.from, typ: e.typ}
			inCur[e.to]++
		}
	}
	a := s.adj
	a.out = adjHalf{off: outOff, ids: outIDs, delta: make(map[NodeID][]halfEdge)}
	a.in = adjHalf{off: inOff, ids: inIDs, delta: make(map[NodeID][]halfEdge)}
	a.baseMaxEdge = s.nextEdge // every later edge gets a greater ID
	if len(a.dead) > 0 {
		a.dead = make(map[EdgeID]struct{})
	}
	a.pending = 0
}

// maybeRebuildAdjLocked batches overlay compaction: it repacks only when
// needsRebuild says so. Called under the write lock after each
// adjacency-changing mutation, and once by the outermost load bracket's
// seal (EndBulk); inside a bracket it does nothing.
func (s *Store) maybeRebuildAdjLocked() {
	if s.bulk > 0 {
		return
	}
	if s.adj.needsRebuild() {
		s.rebuildAdjLocked()
	}
}

// IncidentEdge is the allocation-free per-edge view the query executor
// expands over: the edge, the far endpoint, and the resolved type
// string (shared with the store's intern table — treat as read-only).
type IncidentEdge struct {
	ID    EdgeID
	Other NodeID
	Type  string
}

// IncidentEdges appends to buf the edges incident to id in the given
// direction whose type matches typ ("" matches every type), returning
// the extended buffer. Within one direction edges come back in
// ascending edge-ID order; Both yields the out block then the in block
// (self-loops appear in each). Reusing buf across calls makes the walk
// allocation-free once the buffer has grown to the node's degree.
func (s *Store) IncidentEdges(buf []IncidentEdge, id NodeID, dir Direction, typ string) []IncidentEdge {
	s.mu.RLock()
	defer s.mu.RUnlock()
	any := typ == ""
	var want Sym
	if !any {
		want = s.syms.lookup(typ) // symNone matches no edge
	}
	s.adj.forEach(id, dir, func(he halfEdge) bool {
		if any || he.typ == want {
			buf = append(buf, IncidentEdge{ID: he.id, Other: he.other, Type: s.syms.str(he.typ)})
		}
		return true
	})
	return buf
}
