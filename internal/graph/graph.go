// Package graph implements the embedded property-graph store that plays the
// role Neo4j plays in the paper: typed nodes with key-value attributes,
// typed directed edges, label and property indexes, exact-text merge
// semantics at insertion time (Section 2.5), JSON persistence, and the
// traversal primitives the Cypher engine, the fusion stage, and the
// exploration API are built on.
//
// Internally the store is symbol-interned and copy-on-write: labels, edge
// types, and attribute names resolve to dense uint32 symbols (symtab.go),
// every index map is keyed on symbols or small structs rather than built
// strings, incidence lives in a CSR-style packed layout (adjacency.go),
// and node/edge records are immutable once published — mutations build a
// fresh record and swap it in, so accessors hand out shared pointers
// without copying. None of this is visible at the API: everything exported
// still speaks strings, and the JSON persistence format is unchanged.
package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node. IDs are never reused within a store's lifetime.
type NodeID int64

// EdgeID identifies an edge.
type EdgeID int64

// Node is one graph node. Type is the ontology entity type (stored as a
// string so the store stays schema-agnostic), Name is the description text
// whose exact equality drives storage-time merging.
//
// Nodes returned by the store are shared immutable records: treat them
// (including Attrs) as read-only. Mutating one corrupts indexed state.
type Node struct {
	ID    NodeID            `json:"id"`
	Type  string            `json:"type"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Edge is one directed, typed edge. Edges returned by the store are shared
// immutable records: treat them (including Attrs) as read-only.
type Edge struct {
	ID    EdgeID            `json:"id"`
	Type  string            `json:"type"`
	From  NodeID            `json:"from"`
	To    NodeID            `json:"to"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Direction selects edge orientation for traversals.
type Direction int

const (
	Out Direction = iota
	In
	Both
)

// nodeRec pairs a node's immutable record with its interned label so
// index maintenance never re-hashes the label string.
type nodeRec struct {
	typ Sym
	n   *Node
}

// edgeRec carries the adjacency-relevant edge fields (endpoints, interned
// type) alongside the immutable record, so CSR rebuilds and type filters
// never chase the record pointer for strings.
type edgeRec struct {
	from NodeID
	to   NodeID
	typ  Sym
	e    *Edge
}

// nodeKeyT is the exact (type, name) merge-index key: interned label +
// name string, hashed as a struct instead of a concatenation.
type nodeKeyT struct {
	typ  Sym
	name string
}

// edgeKeyT is the (from, type, to) dedup-index key.
type edgeKeyT struct {
	from NodeID
	to   NodeID
	typ  Sym
}

// typeAttrKeyT is the composite (type, key, val) index key for indexed
// attributes.
type typeAttrKeyT struct {
	typ Sym
	key Sym
	val string
}

// Store is an in-memory property graph safe for concurrent use.
//
// Reads through the plain accessors observe the latest state, including
// the uncommitted writes of an open transaction (the single writer).
// Readers that need isolation take a Snapshot (or run inside a Tx) and
// read through the View interface: versioned visibility (mvcc.go) gives
// every snapshot the exact committed state as of its creation, without
// blocking — or being blocked by — the writer.
type Store struct {
	mu sync.RWMutex

	// writerMu serializes mutators: bare mutations act as single-op
	// transactions and hold it for one call; a Tx acquires it at its
	// first write and holds it until Commit/Rollback. Lock order is
	// always writerMu before mu.
	writerMu sync.Mutex

	syms  *symtab
	nodes map[NodeID]nodeRec
	edges map[EdgeID]edgeRec
	adj   *adjacency

	// MVCC side state (mvcc.go). commitTS is the timestamp of the last
	// committed write; curProv is the in-flight (provisional) timestamp a
	// mutator stamps its versions with; curTx is the open transaction, if
	// any. nodeBegin/edgeBegin record when the *current* record of an
	// entity became visible (absent = since forever); nodeOld/edgeOld
	// hold superseded versions with their [begin, end) validity. All five
	// maps stay empty — and every read stays on the fast path — unless a
	// snapshot or transaction is active while writes happen; they are
	// purged as soon as the last snapshot closes.
	commitTS  uint64
	curProv   uint64
	curTx     *Tx
	nodeBegin map[NodeID]uint64
	edgeBegin map[EdgeID]uint64
	nodeOld   map[NodeID][]nodeVer
	edgeOld   map[EdgeID][]edgeVer
	snaps     map[uint64]int // active snapshot count per asOf timestamp

	byKey  map[nodeKeyT]NodeID            // exact (type, name) merge index
	byType map[Sym]map[NodeID]struct{}    // label index; empty sets are pruned
	byName map[string]map[NodeID]struct{} // name index across types; empty sets are pruned
	// propIdx[key][val] is the node set for one indexed attribute value;
	// propIdxSize[key] counts the nodes carrying the key (sum over vals),
	// kept live so AvgAttrBucket is O(1).
	propIdx     map[Sym]map[string]map[NodeID]struct{}
	propIdxSize map[Sym]int
	typeAttr    map[typeAttrKeyT]map[NodeID]struct{} // composite (type, key, val) index for indexed attrs
	indexed     map[Sym]bool                         // which attribute keys are indexed
	edgeKey     map[edgeKeyT]EdgeID

	edgeTypeCount map[Sym]int // live per-type edge counts for the statistics layer
	// idxEpoch is the per-mutation change counter: bumped by IndexAttr and
	// by every effective mutation. A cheap has-anything-changed probe for
	// diagnostics and tests — the plan cache keys on statsVersion below,
	// and the durability layer consumes onMutation, not this counter.
	idxEpoch int64
	// statsVersion is the coarser planner-facing epoch: it bumps only when
	// a planner-visible count (total nodes/edges, a label's cardinality, an
	// edge type's cardinality) has drifted materially since the last bump,
	// or when IndexAttr creates a new access path. Plan caches key on it,
	// so write-heavy workloads whose store size stays roughly stable keep
	// their cached plans (stats.go).
	statsVersion int64
	statsBase    statsSnapshot
	histMu       sync.Mutex
	histCache    map[degreeKey]cachedHistogram
	// Cardinality-drift feedback (drift.go): per-(label, edge type,
	// direction) counters of estimate-vs-actual divergence reported by
	// EXPLAIN ANALYZE. Enough observations retire the matching degree
	// histogram and bump statsVersion so cached plans re-cost.
	driftMu sync.Mutex
	drift   map[DriftKey]*driftEntry
	// onMutation observes every effective mutation under the write lock
	// (SetMutationHook); the durability layer tees writes into its WAL here.
	onMutation func(Mutation)
	// bulk counts open bulk-mode brackets (ApplyStream, ApplyBatch, a
	// Tx marked SetBulk, or an explicit BeginBulk/EndBulk pair). While
	// nonzero, per-mutation adjacency compaction and stats-drift checks
	// are suppressed; closing the outermost bracket seals with one
	// rebuild + one materiality judgement instead. Brackets nest so a
	// bulk transaction inside a load bracket still seals exactly once.
	bulk int

	nextNode NodeID
	nextEdge EdgeID

	mergeHits int64 // how many MergeNode calls matched an existing node

	// queryCache anchors engine-level derived state to the store (see
	// QueryCache); opaque to the graph package.
	queryCacheOnce sync.Once
	queryCache     any
}

// New creates an empty store with a property index on "name" semantics
// already provided by the dedicated name index. Additional attribute
// indexes can be requested with IndexAttr.
func New() *Store {
	s := &Store{
		syms:          newSymtab(),
		nodes:         make(map[NodeID]nodeRec),
		edges:         make(map[EdgeID]edgeRec),
		adj:           newAdjacency(),
		byKey:         make(map[nodeKeyT]NodeID),
		byType:        make(map[Sym]map[NodeID]struct{}),
		byName:        make(map[string]map[NodeID]struct{}),
		propIdx:       make(map[Sym]map[string]map[NodeID]struct{}),
		propIdxSize:   make(map[Sym]int),
		typeAttr:      make(map[typeAttrKeyT]map[NodeID]struct{}),
		indexed:       make(map[Sym]bool),
		edgeKey:       make(map[edgeKeyT]EdgeID),
		edgeTypeCount: make(map[Sym]int),
		statsVersion:  1,
		nodeBegin:     make(map[NodeID]uint64),
		edgeBegin:     make(map[EdgeID]uint64),
		nodeOld:       make(map[NodeID][]nodeVer),
		edgeOld:       make(map[EdgeID][]edgeVer),
		snaps:         make(map[uint64]int),
	}
	s.adj.all = []EdgeID{}
	s.rebaseStatsLocked()
	return s
}

// Reserve pre-sizes the store's core maps for a bulk load of roughly
// nodes nodes and edges edges, eliminating the incremental rehashing a
// long insert sequence otherwise pays. Only empty maps are replaced —
// on a store that already holds data Reserve is a no-op — so callers
// (recovery, bulk import) can pass a cheap upper bound unconditionally.
func (s *Store) Reserve(nodes, edges int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nodes > 0 && len(s.nodes) == 0 {
		s.nodes = make(map[NodeID]nodeRec, nodes)
		s.byKey = make(map[nodeKeyT]NodeID, nodes)
		s.byName = make(map[string]map[NodeID]struct{}, nodes)
	}
	if edges > 0 && len(s.edges) == 0 {
		s.edges = make(map[EdgeID]edgeRec, edges)
		s.edgeKey = make(map[edgeKeyT]EdgeID, edges)
	}
}

// QueryCache returns the store-scoped slot higher layers use to share
// derived state across consumers of one store — the Cypher engine keeps
// its compiled-plan cache here, so every engine over a store shares
// plans. init runs at most once per store; the value's lifetime is the
// store's, so caches can never outlive (or leak past) their graph.
func (s *Store) QueryCache(init func() any) any {
	s.queryCacheOnce.Do(func() { s.queryCache = init() })
	return s.queryCache
}

// IndexAttr enables an index on the given attribute key. Existing nodes
// are back-filled. Index creation is not versioned: snapshots taken
// before the index see it too, which only widens their access paths —
// visibility filtering still applies per node.
func (s *Store) IndexAttr(key string) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.syms.intern(key)
	if s.indexed[ks] {
		return
	}
	s.indexed[ks] = true
	s.idxEpoch++
	// A new access path always changes what the planner may pick: bump the
	// planner-facing stats version unconditionally.
	s.bumpStatsLocked()
	s.propIdx[ks] = make(map[string]map[NodeID]struct{})
	for id, rec := range s.nodes {
		if v, ok := rec.n.Attrs[key]; ok {
			s.propIdxAdd(ks, v, id)
			s.typeAttrAdd(rec.typ, ks, v, id)
		}
	}
}

func (s *Store) typeAttrAdd(typ, key Sym, val string, id NodeID) {
	k := typeAttrKeyT{typ: typ, key: key, val: val}
	set, ok := s.typeAttr[k]
	if !ok {
		set = make(map[NodeID]struct{})
		s.typeAttr[k] = set
	}
	set[id] = struct{}{}
}

func (s *Store) typeAttrDel(typ, key Sym, val string, id NodeID) {
	k := typeAttrKeyT{typ: typ, key: key, val: val}
	if set, ok := s.typeAttr[k]; ok {
		delete(set, id)
		if len(set) == 0 {
			delete(s.typeAttr, k)
		}
	}
}

func (s *Store) propIdxAdd(key Sym, val string, id NodeID) {
	m := s.propIdx[key]
	set, ok := m[val]
	if !ok {
		set = make(map[NodeID]struct{})
		m[val] = set
	}
	set[id] = struct{}{}
	s.propIdxSize[key]++
}

func (s *Store) propIdxDel(key Sym, val string, id NodeID) {
	if set, ok := s.propIdx[key][val]; ok {
		if _, had := set[id]; had {
			delete(set, id)
			s.propIdxSize[key]--
			if len(set) == 0 {
				delete(s.propIdx[key], val)
			}
		}
	}
}

// MergeNode inserts a node or returns the existing node with exactly the
// same (type, name), implementing the paper's storage-time merge rule:
// "we only merge nodes with exactly the same description text". Attributes
// of an existing node are augmented (new keys added, existing keys kept —
// first writer wins, preventing early deletion of information).
func (s *Store) MergeNode(typ, name string, attrs map[string]string) (NodeID, bool) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBareLocked()
	defer s.endBareLocked()
	return s.mergeNodeLocked(typ, name, attrs)
}

func (s *Store) mergeNodeLocked(typ, name string, attrs map[string]string) (NodeID, bool) {
	tsym := s.syms.intern(typ)
	key := nodeKeyT{typ: tsym, name: name}
	if id, ok := s.byKey[key]; ok {
		s.mergeHits++
		rec := s.nodes[id]
		n := rec.n
		// Copy-on-write: records already published to readers are never
		// touched — augmentation builds a fresh attr map and node.
		var merged map[string]string
		for k, v := range attrs {
			if _, exists := n.Attrs[k]; !exists {
				if merged == nil {
					merged = make(map[string]string, len(n.Attrs)+len(attrs))
					for k2, v2 := range n.Attrs {
						merged[k2] = v2
					}
				}
				ks := s.syms.intern(k)
				merged[s.syms.str(ks)] = v
				if s.indexed[ks] {
					s.propIdxAdd(ks, v, id)
					s.typeAttrAdd(tsym, ks, v, id)
				}
			}
		}
		if merged != nil {
			s.retireNodeLocked(id, rec, true)
			nn := *n
			nn.Attrs = merged
			s.nodes[id] = nodeRec{typ: rec.typ, n: &nn}
			s.stampNodeLocked(id)
			s.noteMutation(Mutation{Op: OpMergeNode, Type: typ, Name: name, Attrs: attrs})
		}
		return id, false
	}
	s.nextNode++
	id := s.nextNode
	n := &Node{ID: id, Type: s.syms.str(tsym), Name: name}
	if len(attrs) > 0 {
		n.Attrs = make(map[string]string, len(attrs))
		for k, v := range attrs {
			ks := s.syms.intern(k)
			n.Attrs[s.syms.str(ks)] = v
			if s.indexed[ks] {
				s.propIdxAdd(ks, v, id)
				s.typeAttrAdd(tsym, ks, v, id)
			}
		}
	}
	s.retireNodeLocked(id, nodeRec{}, false)
	s.nodes[id] = nodeRec{typ: tsym, n: n}
	s.stampNodeLocked(id)
	s.byKey[key] = id
	if s.byType[tsym] == nil {
		s.byType[tsym] = make(map[NodeID]struct{})
	}
	s.byType[tsym][id] = struct{}{}
	if s.byName[name] == nil {
		s.byName[name] = make(map[NodeID]struct{})
	}
	s.byName[name][id] = struct{}{}
	s.noteMutation(Mutation{Op: OpMergeNode, Type: typ, Name: name, Attrs: attrs})
	return id, true
}

// AddEdge inserts a directed edge, deduplicating identical (from, type, to)
// triples: re-adding merges attributes like MergeNode. Returns the edge ID
// and whether a new edge was created.
func (s *Store) AddEdge(from NodeID, typ string, to NodeID, attrs map[string]string) (EdgeID, bool, error) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBareLocked()
	defer s.endBareLocked()
	return s.addEdgePublicLocked(from, typ, to, attrs)
}

func (s *Store) addEdgePublicLocked(from NodeID, typ string, to NodeID, attrs map[string]string) (EdgeID, bool, error) {
	if _, ok := s.nodes[from]; !ok {
		return 0, false, fmt.Errorf("graph: AddEdge: unknown source node %d", from)
	}
	if _, ok := s.nodes[to]; !ok {
		return 0, false, fmt.Errorf("graph: AddEdge: unknown target node %d", to)
	}
	tsym := s.syms.intern(typ)
	ek := edgeKeyT{from: from, to: to, typ: tsym}
	if id, ok := s.edgeKey[ek]; ok {
		rec := s.edges[id]
		e := rec.e
		var merged map[string]string
		for k, v := range attrs {
			if _, exists := e.Attrs[k]; !exists {
				if merged == nil {
					merged = make(map[string]string, len(e.Attrs)+len(attrs))
					for k2, v2 := range e.Attrs {
						merged[k2] = v2
					}
				}
				merged[s.syms.canon(k)] = v
			}
		}
		if merged != nil {
			s.retireEdgeLocked(id, rec, true)
			ne := *e
			ne.Attrs = merged
			s.edges[id] = edgeRec{from: rec.from, to: rec.to, typ: rec.typ, e: &ne}
			s.stampEdgeLocked(id)
			s.noteMutation(Mutation{Op: OpAddEdge, From: from, Type: typ, To: to, Attrs: attrs})
		}
		return id, false, nil
	}
	s.nextEdge++
	id := s.nextEdge
	e := &Edge{ID: id, Type: s.syms.str(tsym), From: from, To: to}
	if len(attrs) > 0 {
		e.Attrs = make(map[string]string, len(attrs))
		for k, v := range attrs {
			e.Attrs[s.syms.canon(k)] = v
		}
	}
	s.retireEdgeLocked(id, edgeRec{}, false)
	s.edges[id] = edgeRec{from: from, to: to, typ: tsym, e: e}
	s.stampEdgeLocked(id)
	s.edgeKey[ek] = id
	s.adj.addEdge(id, from, to, tsym)
	s.edgeTypeCount[tsym]++
	s.noteMutation(Mutation{Op: OpAddEdge, From: from, Type: typ, To: to, Attrs: attrs})
	s.maybeRebuildAdjLocked()
	return id, true, nil
}

// Node returns the node (nil if absent). The returned record is shared and
// immutable — treat it and its Attrs as read-only.
func (s *Store) Node(id NodeID) *Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.nodes[id]
	if !ok {
		return nil
	}
	return rec.n
}

// nodeChunk bounds how many node lookups one batch read (Nodes) does
// under a single hold of the read lock, so a long ID list cannot starve
// a writer.
const nodeChunk = 256

// Nodes appends the current record of each listed node to dst (nil where
// absent, so dst stays aligned with ids), taking the read lock once per
// nodeChunk ids instead of once per node.
func (s *Store) Nodes(dst []*Node, ids []NodeID) []*Node {
	dst = slices.Grow(dst, len(ids))
	for len(ids) > 0 {
		chunk := ids[:min(len(ids), nodeChunk)]
		ids = ids[len(chunk):]
		s.mu.RLock()
		for _, id := range chunk {
			dst = append(dst, s.nodes[id].n)
		}
		s.mu.RUnlock()
	}
	return dst
}

// Edge returns the edge (nil if absent). The returned record is shared and
// immutable — treat it and its Attrs as read-only.
func (s *Store) Edge(id EdgeID) *Edge {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.edges[id]
	if !ok {
		return nil
	}
	return rec.e
}

// FindNode returns the node with the exact (type, name), or nil.
func (s *Store) FindNode(typ, name string) *Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id, ok := s.byKey[nodeKeyT{typ: s.syms.lookup(typ), name: name}]; ok {
		return s.nodes[id].n
	}
	return nil
}

// NodesByName returns all nodes whose Name equals name (any type), sorted
// by ID.
func (s *Store) NodesByName(name string) []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.collect(s.byName[name])
}

// NodesByType returns all nodes with the given type, sorted by ID.
func (s *Store) NodesByType(typ string) []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.collect(s.byType[s.syms.lookup(typ)])
}

// NodesByAttr returns nodes with attrs[key] == val. If the attribute is
// indexed the lookup is O(result); otherwise it scans.
func (s *Store) NodesByAttr(key, val string) []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ks := s.syms.lookup(key); s.indexed[ks] {
		return s.collect(s.propIdx[ks][val])
	}
	var out []*Node
	for _, rec := range s.nodes {
		if rec.n.Attrs[key] == val {
			out = append(out, rec.n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *Store) collect(set map[NodeID]struct{}) []*Node {
	out := make([]*Node, 0, len(set))
	for id := range set {
		out = append(out, s.nodes[id].n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Edges returns the edges incident to id in the given direction, sorted by
// edge ID. The records are shared and immutable — read-only. For the
// executor's inner loop prefer IncidentEdges, which avoids materializing
// edge records at all.
func (s *Store) Edges(id NodeID, dir Direction) []*Edge {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Edge
	sorted := true
	s.adj.forEach(id, dir, func(he halfEdge) bool {
		e := s.edges[he.id].e
		if n := len(out); n > 0 && out[n-1].ID > e.ID {
			sorted = false
		}
		out = append(out, e)
		return true
	})
	// Each direction walks in ascending edge-ID order already; only a Both
	// walk whose out and in blocks interleave pays the sort.
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	}
	return out
}

// Neighbors returns the distinct nodes adjacent to id in the given
// direction, sorted by ID.
func (s *Store) Neighbors(id NodeID, dir Direction) []*Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[NodeID]struct{})
	s.adj.forEach(id, dir, func(he halfEdge) bool {
		seen[he.other] = struct{}{}
		return true
	})
	return s.collect(seen)
}

// SetAttr sets one attribute on a node, updating indexes.
func (s *Store) SetAttr(id NodeID, key, val string) error {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBareLocked()
	defer s.endBareLocked()
	return s.setAttrLocked(id, key, val)
}

func (s *Store) setAttrLocked(id NodeID, key, val string) error {
	rec, ok := s.nodes[id]
	if !ok {
		return fmt.Errorf("graph: SetAttr: unknown node %d", id)
	}
	n := rec.n
	old, had := n.Attrs[key]
	if had && old == val {
		return nil // no-op write: nothing to invalidate or log
	}
	ks := s.syms.intern(key)
	if had && s.indexed[ks] {
		s.propIdxDel(ks, old, id)
		s.typeAttrDel(rec.typ, ks, old, id)
	}
	merged := make(map[string]string, len(n.Attrs)+1)
	for k, v := range n.Attrs {
		merged[k] = v
	}
	merged[s.syms.str(ks)] = val
	s.retireNodeLocked(id, rec, true)
	nn := *n
	nn.Attrs = merged
	s.nodes[id] = nodeRec{typ: rec.typ, n: &nn}
	s.stampNodeLocked(id)
	if s.indexed[ks] {
		s.propIdxAdd(ks, val, id)
		s.typeAttrAdd(rec.typ, ks, val, id)
	}
	s.noteMutation(Mutation{Op: OpSetAttr, Node: id, Key: key, Val: val})
	return nil
}

// DeleteNode removes a node and all incident edges.
func (s *Store) DeleteNode(id NodeID) error {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBareLocked()
	defer s.endBareLocked()
	return s.deleteNodeLocked(id)
}

func (s *Store) deleteNodeLocked(id NodeID) error {
	rec, ok := s.nodes[id]
	if !ok {
		return fmt.Errorf("graph: DeleteNode: unknown node %d", id)
	}
	var eids []EdgeID
	s.adj.forEach(id, Both, func(he halfEdge) bool {
		eids = append(eids, he.id)
		return true
	})
	for _, eid := range eids {
		s.deleteEdgeLocked(eid) // idempotent: self-loops appear twice
	}
	s.retireNodeLocked(id, rec, true)
	s.uninstallNodeLocked(id, rec)
	delete(s.nodeBegin, id)
	s.adj.removeNode(id)
	s.noteMutation(Mutation{Op: OpDeleteNode, Node: id})
	s.maybeRebuildAdjLocked()
	return nil
}

// uninstallNodeLocked removes node id's current record and every index
// entry derived from it. Shared by DeleteNode and transaction rollback
// (which strips the tx's version before reinstalling the pre-image).
func (s *Store) uninstallNodeLocked(id NodeID, rec nodeRec) {
	n := rec.n
	key := nodeKeyT{typ: rec.typ, name: n.Name}
	if cur, ok := s.byKey[key]; ok && cur == id {
		delete(s.byKey, key)
	}
	if set := s.byType[rec.typ]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(s.byType, rec.typ)
		}
	}
	if set := s.byName[n.Name]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(s.byName, n.Name)
		}
	}
	for k, v := range n.Attrs {
		if ks := s.syms.lookup(k); s.indexed[ks] {
			s.propIdxDel(ks, v, id)
			s.typeAttrDel(rec.typ, ks, v, id)
		}
	}
	delete(s.nodes, id)
}

// installNodeLocked is uninstallNodeLocked's inverse: it republishes a
// node record and rebuilds its index entries. Only rollback uses it.
func (s *Store) installNodeLocked(id NodeID, rec nodeRec) {
	n := rec.n
	s.nodes[id] = rec
	s.byKey[nodeKeyT{typ: rec.typ, name: n.Name}] = id
	if s.byType[rec.typ] == nil {
		s.byType[rec.typ] = make(map[NodeID]struct{})
	}
	s.byType[rec.typ][id] = struct{}{}
	if s.byName[n.Name] == nil {
		s.byName[n.Name] = make(map[NodeID]struct{})
	}
	s.byName[n.Name][id] = struct{}{}
	for k, v := range n.Attrs {
		if ks := s.syms.lookup(k); s.indexed[ks] {
			s.propIdxAdd(ks, v, id)
			s.typeAttrAdd(rec.typ, ks, v, id)
		}
	}
}

// DeleteEdge removes one edge.
func (s *Store) DeleteEdge(id EdgeID) error {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBareLocked()
	defer s.endBareLocked()
	return s.deleteEdgePublicLocked(id)
}

func (s *Store) deleteEdgePublicLocked(id EdgeID) error {
	if _, ok := s.edges[id]; !ok {
		return fmt.Errorf("graph: DeleteEdge: unknown edge %d", id)
	}
	s.deleteEdgeLocked(id)
	s.noteMutation(Mutation{Op: OpDeleteEdge, Edge: id})
	s.maybeRebuildAdjLocked()
	return nil
}

func (s *Store) deleteEdgeLocked(id EdgeID) {
	rec, ok := s.edges[id]
	if !ok {
		return
	}
	s.retireEdgeLocked(id, rec, true)
	s.uninstallEdgeLocked(id, rec)
	delete(s.edgeBegin, id)
	s.adj.removeEdge(id, rec.from, rec.to)
}

// uninstallEdgeLocked removes edge id's current record and derived index
// state, except adjacency (callers handle that; rollback rebuilds it
// wholesale). Shared by deleteEdgeLocked and transaction rollback.
func (s *Store) uninstallEdgeLocked(id EdgeID, rec edgeRec) {
	ek := edgeKeyT{from: rec.from, to: rec.to, typ: rec.typ}
	if cur, ok := s.edgeKey[ek]; ok && cur == id {
		delete(s.edgeKey, ek)
	}
	delete(s.edges, id)
	if s.edgeTypeCount[rec.typ]--; s.edgeTypeCount[rec.typ] <= 0 {
		delete(s.edgeTypeCount, rec.typ)
	}
}

// installEdgeLocked republishes an edge record and its index entries
// (again excluding adjacency). Only rollback uses it.
func (s *Store) installEdgeLocked(id EdgeID, rec edgeRec) {
	s.edges[id] = rec
	s.edgeKey[edgeKeyT{from: rec.from, to: rec.to, typ: rec.typ}] = id
	s.edgeTypeCount[rec.typ]++
}

// MigrateEdges re-points every edge incident to from so it is incident to
// to instead, preserving edge types and attributes and deduplicating
// against existing edges of to. Self-loops created by the migration are
// dropped. Used by the knowledge-fusion stage.
func (s *Store) MigrateEdges(from, to NodeID) error {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBareLocked()
	defer s.endBareLocked()
	return s.migrateEdgesLocked(from, to)
}

func (s *Store) migrateEdgesLocked(from, to NodeID) error {
	if _, ok := s.nodes[from]; !ok {
		return fmt.Errorf("graph: MigrateEdges: unknown node %d", from)
	}
	if _, ok := s.nodes[to]; !ok {
		return fmt.Errorf("graph: MigrateEdges: unknown node %d", to)
	}
	var outs, ins []EdgeID
	s.adj.forEach(from, Out, func(he halfEdge) bool {
		outs = append(outs, he.id)
		return true
	})
	s.adj.forEach(from, In, func(he halfEdge) bool {
		ins = append(ins, he.id)
		return true
	})
	if len(outs) == 0 && len(ins) == 0 {
		return nil // nothing incident: no state change to log
	}
	for _, eid := range outs {
		rec := s.edges[eid]
		typ, dst, attrs := rec.typ, rec.to, rec.e.Attrs
		s.deleteEdgeLocked(eid)
		if dst == to || dst == from {
			continue
		}
		s.addEdgeLocked(to, typ, dst, attrs)
	}
	for _, eid := range ins {
		rec, ok := s.edges[eid]
		if !ok {
			continue // already removed as an out-edge self pair
		}
		typ, src, attrs := rec.typ, rec.from, rec.e.Attrs
		s.deleteEdgeLocked(eid)
		if src == to || src == from {
			continue
		}
		s.addEdgeLocked(src, typ, to, attrs)
	}
	// One logical record regardless of fan-in/out: replaying the call
	// reproduces every per-edge delete/re-add deterministically.
	s.noteMutation(Mutation{Op: OpMigrateEdges, From: from, To: to})
	s.maybeRebuildAdjLocked()
	return nil
}

// addEdgeLocked inserts or augments an edge whose attrs map is already
// safe to share (it comes from an immutable record).
func (s *Store) addEdgeLocked(from NodeID, typ Sym, to NodeID, attrs map[string]string) {
	ek := edgeKeyT{from: from, to: to, typ: typ}
	if id, ok := s.edgeKey[ek]; ok {
		rec := s.edges[id]
		e := rec.e
		var merged map[string]string
		for k, v := range attrs {
			if _, exists := e.Attrs[k]; !exists {
				if merged == nil {
					merged = make(map[string]string, len(e.Attrs)+len(attrs))
					for k2, v2 := range e.Attrs {
						merged[k2] = v2
					}
				}
				merged[k] = v
			}
		}
		if merged != nil {
			s.retireEdgeLocked(id, rec, true)
			ne := *e
			ne.Attrs = merged
			s.edges[id] = edgeRec{from: rec.from, to: rec.to, typ: rec.typ, e: &ne}
			s.stampEdgeLocked(id)
		}
		return
	}
	s.nextEdge++
	id := s.nextEdge
	e := &Edge{ID: id, Type: s.syms.str(typ), From: from, To: to}
	if len(attrs) > 0 {
		e.Attrs = attrs
	}
	s.retireEdgeLocked(id, edgeRec{}, false)
	s.edges[id] = edgeRec{from: from, to: to, typ: typ, e: e}
	s.stampEdgeLocked(id)
	s.edgeKey[ek] = id
	s.adj.addEdge(id, from, to, typ)
	s.edgeTypeCount[typ]++
}

// ForEachNode calls fn for every node; iteration stops if fn returns false.
// The callback receives the shared immutable record.
func (s *Store) ForEachNode(fn func(*Node) bool) {
	s.mu.RLock()
	ids := make([]NodeID, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	forEachNodeChunked(s, sortNodeIDs(ids), fn)
}

// ForEachEdge calls fn for every edge; iteration stops if fn returns false.
func (s *Store) ForEachEdge(fn func(*Edge) bool) {
	s.mu.RLock()
	ids := make([]EdgeID, 0, len(s.edges))
	for id := range s.edges {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := s.Edge(id)
		if e == nil {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// Stats summarizes store contents.
type Stats struct {
	Nodes       int            `json:"nodes"`
	Edges       int            `json:"edges"`
	NodesByType map[string]int `json:"nodes_by_type"`
	EdgesByType map[string]int `json:"edges_by_type"`
	MergeHits   int64          `json:"merge_hits"`
}

// Stats returns counts by type plus the number of storage-time merges.
// O(labels + edge types): the per-type counts read the live indexes, not
// a node/edge scan.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Nodes:       len(s.nodes),
		Edges:       len(s.edges),
		NodesByType: make(map[string]int, len(s.byType)),
		EdgesByType: make(map[string]int, len(s.edgeTypeCount)),
		MergeHits:   s.mergeHits,
	}
	for sy, set := range s.byType {
		st.NodesByType[s.syms.str(sy)] = len(set)
	}
	for sy, c := range s.edgeTypeCount {
		st.EdgesByType[s.syms.str(sy)] = c
	}
	return st
}

// --- persistence ---

type persistHeader struct {
	Magic    string `json:"magic"`
	Version  int    `json:"version"`
	NextNode NodeID `json:"next_node"`
	NextEdge EdgeID `json:"next_edge"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
}

const persistMagic = "securitykg-graph"

// Save writes the graph as JSON lines: a header record, then one record
// per node, then one per edge. The format is stable and diff-friendly.
// SaveBinary (binary.go) is the compact alternative; Load sniffs both.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.saveLocked(w)
}

// SaveWithHeader writes hdr's output, then the Save stream, all under one
// read lock — so whatever the header records (the durability layer's WAL
// sequence number) observes exactly the state the snapshot captures: no
// mutation can slip between the two.
func (s *Store) SaveWithHeader(w io.Writer, hdr func(io.Writer) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if hdr != nil {
		if err := hdr(w); err != nil {
			return err
		}
	}
	return s.saveLocked(w)
}

func (s *Store) saveLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := persistHeader{
		Magic: persistMagic, Version: 1,
		NextNode: s.nextNode, NextEdge: s.nextEdge,
		Nodes: len(s.nodes), Edges: len(s.edges),
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("graph: save header: %w", err)
	}
	for _, id := range s.sortedNodeIDsLocked() {
		if err := enc.Encode(s.nodes[id].n); err != nil {
			return fmt.Errorf("graph: save node %d: %w", id, err)
		}
	}
	for _, id := range s.sortedEdgeIDsLocked() {
		if err := enc.Encode(s.edges[id].e); err != nil {
			return fmt.Errorf("graph: save edge %d: %w", id, err)
		}
	}
	return bw.Flush()
}

func (s *Store) sortedNodeIDsLocked() []NodeID {
	nids := make([]NodeID, 0, len(s.nodes))
	for id := range s.nodes {
		nids = append(nids, id)
	}
	sort.Slice(nids, func(i, j int) bool { return nids[i] < nids[j] })
	return nids
}

func (s *Store) sortedEdgeIDsLocked() []EdgeID {
	eids := make([]EdgeID, 0, len(s.edges))
	for id := range s.edges {
		eids = append(eids, id)
	}
	sort.Slice(eids, func(i, j int) bool { return eids[i] < eids[j] })
	return eids
}

// Load reads a graph previously written by Save or SaveBinary into an
// empty store, sniffing which codec wrote it.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		return loadBinary(br)
	}
	return loadJSON(br)
}

func loadJSON(br *bufio.Reader) (*Store, error) {
	s := New()
	dec := json.NewDecoder(br)
	var hdr persistHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("graph: load header: %w", err)
	}
	if hdr.Magic != persistMagic {
		return nil, errors.New("graph: not a securitykg graph file")
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("graph: unsupported version %d", hdr.Version)
	}
	for i := 0; i < hdr.Nodes; i++ {
		var n Node
		if err := dec.Decode(&n); err != nil {
			return nil, fmt.Errorf("graph: load node %d/%d: %w", i, hdr.Nodes, err)
		}
		if err := s.loadNode(n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < hdr.Edges; i++ {
		var e Edge
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("graph: load edge %d/%d: %w", i, hdr.Edges, err)
		}
		if err := s.loadEdge(e); err != nil {
			return nil, err
		}
	}
	s.finishLoad(hdr.NextNode, hdr.NextEdge)
	return s, nil
}

// loadNode validates and installs one node during Load. The store is not
// yet shared, so no locking.
func (s *Store) loadNode(n Node) error {
	if n.ID < 1 {
		return fmt.Errorf("graph: load: invalid node id %d", n.ID)
	}
	if _, dup := s.nodes[n.ID]; dup {
		return fmt.Errorf("graph: load: duplicate node id %d", n.ID)
	}
	tsym := s.syms.intern(n.Type)
	key := nodeKeyT{typ: tsym, name: n.Name}
	if _, dup := s.byKey[key]; dup {
		return fmt.Errorf("graph: load: duplicate node (%s, %q)", n.Type, n.Name)
	}
	nc := n
	nc.Type = s.syms.str(tsym)
	s.nodes[n.ID] = nodeRec{typ: tsym, n: &nc}
	s.byKey[key] = n.ID
	if s.byType[tsym] == nil {
		s.byType[tsym] = make(map[NodeID]struct{})
	}
	s.byType[tsym][n.ID] = struct{}{}
	if s.byName[n.Name] == nil {
		s.byName[n.Name] = make(map[NodeID]struct{})
	}
	s.byName[n.Name][n.ID] = struct{}{}
	return nil
}

// loadEdge validates and installs one edge during Load. Adjacency is not
// maintained per edge; finishLoad rebuilds it in one pass.
func (s *Store) loadEdge(e Edge) error {
	if e.ID < 1 {
		return fmt.Errorf("graph: load: invalid edge id %d", e.ID)
	}
	if _, dup := s.edges[e.ID]; dup {
		return fmt.Errorf("graph: load: duplicate edge id %d", e.ID)
	}
	if _, ok := s.nodes[e.From]; !ok {
		return fmt.Errorf("graph: load: edge %d references unknown node %d", e.ID, e.From)
	}
	if _, ok := s.nodes[e.To]; !ok {
		return fmt.Errorf("graph: load: edge %d references unknown node %d", e.ID, e.To)
	}
	tsym := s.syms.intern(e.Type)
	ec := e
	ec.Type = s.syms.str(tsym)
	s.edges[e.ID] = edgeRec{from: e.From, to: e.To, typ: tsym, e: &ec}
	s.edgeKey[edgeKeyT{from: e.From, to: e.To, typ: tsym}] = e.ID
	s.edgeTypeCount[tsym]++
	return nil
}

// finishLoad seals a bulk load: ID allocators, one adjacency rebuild over
// all loaded edges, and the stats baseline.
func (s *Store) finishLoad(nextNode NodeID, nextEdge EdgeID) {
	s.nextNode = nextNode
	s.nextEdge = nextEdge
	s.adj.all = nil // force reconstruction from the edge map
	s.rebuildAdjLocked()
	s.rebaseStatsLocked()
}

// SaveFile persists the graph to path atomically (write temp + rename).
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("graph: save file: %w", err)
	}
	if err := s.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("graph: close: %w", err)
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a graph from path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: load file: %w", err)
	}
	defer f.Close()
	return Load(f)
}
