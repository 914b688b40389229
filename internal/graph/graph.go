// Package graph implements the embedded property-graph store that plays the
// role Neo4j plays in the paper: typed nodes with key-value attributes,
// typed directed edges, label and property indexes, exact-text merge
// semantics at insertion time (Section 2.5), JSON persistence, and the
// traversal primitives the Cypher engine, the fusion stage, and the
// exploration API are built on.
//
// Internally the store is symbol-interned, ID-ordered and copy-on-write:
// labels, edge types, and attribute names resolve to dense uint32 symbols
// (symtab.go); node and edge records live in slabs indexed by ID (IDs are
// allocated monotonically and never reused, so a lookup is a bounds check
// and a deleted entity leaves a nil hole); every secondary index holds
// ascending ID lists in chunks (posting.go), so scans, persistence and the
// adjacency rebuild walk in ID order without sorting; incidence lives in a CSR-style
// packed layout (adjacency.go); attributes are one key-sorted slice per
// record (attrs.go); and node/edge records are immutable once published —
// mutations build a fresh record and swap it in, so reads hand out
// shared pointers without copying. Apart from the Attrs type none of this
// is visible at the API: everything exported still speaks strings, and the
// JSON persistence format is unchanged.
package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
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
	ID    NodeID `json:"id"`
	Type  string `json:"type"`
	Name  string `json:"name"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

// Edge is one directed, typed edge. Edges returned by the store are shared
// immutable records: treat them (including Attrs) as read-only.
type Edge struct {
	ID    EdgeID `json:"id"`
	Type  string `json:"type"`
	From  NodeID `json:"from"`
	To    NodeID `json:"to"`
	Attrs Attrs  `json:"attrs,omitempty"`
}

// Direction selects edge orientation for traversals.
type Direction int

const (
	Out Direction = iota
	In
	Both
)

// nodeRec pairs a node's immutable record with its interned label so
// index maintenance never re-hashes the label string. A nil n is a hole
// in the slab: an ID never allocated here, or deleted.
type nodeRec struct {
	typ Sym
	n   *Node
}

// edgeRec carries the adjacency-relevant edge fields (endpoints, interned
// type) alongside the immutable record, so CSR rebuilds and type filters
// never chase the record pointer for strings. A nil e is a hole.
type edgeRec struct {
	from NodeID
	to   NodeID
	typ  Sym
	e    *Edge
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
// The Store itself exports writes, statistics and persistence, but no
// node or edge reads: every read goes through a *Snap, one taken with
// Snapshot or a transaction's own view (Tx.Snap). Versioned visibility
// (mvcc.go) gives every snapshot the exact committed state as of its
// creation, without blocking — or being blocked by — the writer, so no
// reader ever sees another transaction's uncommitted writes.
type Store struct {
	mu sync.RWMutex

	// writerMu serializes mutators: bare mutations act as single-op
	// transactions and hold it for one call; a Tx acquires it at its
	// first write and holds it until Commit/Rollback. Lock order is
	// always writerMu before mu.
	writerMu sync.Mutex

	syms *symtab
	// nodes[id] / edges[id] is the current record of the entity, slot 0
	// unused. Both slabs end at or before nextNode / nextEdge; nNodes and
	// nEdges count the slots that are not holes.
	nodes  []nodeRec
	edges  []edgeRec
	nNodes int
	nEdges int
	adj    *adjacency

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
	// snaps counts open snapshots. It changes under mu held shared — so a
	// writer, holding mu exclusively, reads a settled count — and opening
	// or closing a read never asks for the exclusive lock.
	snaps atomic.Int64

	byType map[Sym]posting // label index; empty postings are pruned
	// byName is the name index across types, empty postings pruned. It is
	// the merge index too: the exact (type, name) probe filters the name's
	// posting — almost always one ID long — by the records' labels.
	byName   map[string]posting
	propIdx  map[Sym]map[string]posting // propIdx[key][val]: the posting for one indexed attribute value
	typeAttr map[typeAttrKeyT]posting   // composite (type, key, val) index for indexed attrs
	indexed  map[Sym]bool               // which attribute keys are indexed
	edgeKey  map[edgeKeyT]EdgeID

	// edgeTypeCount is the live edge count per type, zero counts pruned:
	// Stats().EdgesByType.
	edgeTypeCount map[Sym]int
	// statsVersion is the planner-facing epoch: it bumps when IndexAttr
	// creates a new access path and when the store changes sizeClass,
	// bits.Len(nNodes+nEdges). Plan caches key on it, so a steady write
	// load keeps its cached plans (stats.go).
	statsVersion int64
	sizeClass    int
	// onMutation observes every effective mutation (SetMutationHook); the
	// durability layer tees writes into its WAL here. Written under
	// writerMu and mu, so either lock suffices to read it.
	onMutation func(Mutation)
	// walBuf, undoN and undoE are the mutation buffer and undo maps
	// writing transactions take turns with (Tx.walBuf); guarded by
	// writerMu.
	walBuf []Mutation
	undoN  map[NodeID]nodeUndo
	undoE  map[EdgeID]edgeUndo
	// bulk counts open BeginBulk/EndBulk load brackets. While nonzero,
	// per-mutation adjacency compaction is suppressed; closing the
	// outermost bracket runs one compaction check (a repack only past the
	// overlay threshold) instead. Brackets nest.
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
	return &Store{
		syms:          newSymtab(),
		nodes:         make([]nodeRec, 1),
		edges:         make([]edgeRec, 1),
		adj:           newAdjacency(),
		byType:        make(map[Sym]posting),
		byName:        make(map[string]posting),
		propIdx:       make(map[Sym]map[string]posting),
		typeAttr:      make(map[typeAttrKeyT]posting),
		indexed:       make(map[Sym]bool),
		edgeKey:       make(map[edgeKeyT]EdgeID),
		edgeTypeCount: make(map[Sym]int),
		statsVersion:  1,
		nodeBegin:     make(map[NodeID]uint64),
		edgeBegin:     make(map[EdgeID]uint64),
		nodeOld:       make(map[NodeID][]nodeVer),
		edgeOld:       make(map[EdgeID][]edgeVer),
	}
}

// Reserve pre-sizes the store for a bulk load of roughly nodes nodes and
// edges edges: slab capacity for that many records and room in the name
// and edge-dedup maps, eliminating the incremental regrowth a long insert
// sequence otherwise pays. Only an empty store is resized — on one that
// already holds data Reserve is a no-op — so callers (recovery, bulk
// import) can pass a cheap upper bound unconditionally.
func (s *Store) Reserve(nodes, edges int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nodes > 0 && s.nNodes == 0 {
		s.nodes = slices.Grow(s.nodes, nodes)
		s.byName = make(map[string]posting, nodes)
	}
	if edges > 0 && s.nEdges == 0 {
		s.edges = slices.Grow(s.edges, edges)
		s.edgeKey = make(map[edgeKeyT]EdgeID, edges)
	}
}

// nodeAt returns node id's current record; ok is false for an ID outside
// the slab and for a hole.
func (s *Store) nodeAt(id NodeID) (nodeRec, bool) {
	if uint64(id) < uint64(len(s.nodes)) {
		rec := s.nodes[id]
		return rec, rec.n != nil
	}
	return nodeRec{}, false
}

func (s *Store) edgeAt(id EdgeID) (edgeRec, bool) {
	if uint64(id) < uint64(len(s.edges)) {
		rec := s.edges[id]
		return rec, rec.e != nil
	}
	return edgeRec{}, false
}

// slot returns slab grown so that index i exists. New slots are holes:
// capacity past the length is always zero, because cutSlab clears what it
// cuts.
func slot[R any](slab []R, i int) []R {
	if i < len(slab) {
		return slab
	}
	return slices.Grow(slab, i+1-len(slab))[:i+1]
}

// cutSlab shortens slab to n slots, clearing the tail it drops.
func cutSlab[R any](slab []R, n int) []R {
	if n >= len(slab) {
		return slab
	}
	clear(slab[n:])
	return slab[:n]
}

// canonKeys swaps every key of a freshly built attr set for the store's
// interned copy, so each record shares one heap string per key.
func (s *Store) canonKeys(a Attrs) Attrs {
	for i := range a {
		a[i].Key = s.syms.canon(a[i].Key)
	}
	return a
}

// findLocked is the exact (type, name) probe of the merge index.
func (s *Store) findLocked(typ Sym, name string) (NodeID, bool) {
	for id := range s.byName[name].all() {
		if s.nodes[id].typ == typ {
			return id, true
		}
	}
	return 0, false
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
	// A new access path always changes what the planner may pick: bump the
	// planner-facing stats version unconditionally.
	s.statsVersion++
	s.propIdx[ks] = make(map[string]posting)
	for _, rec := range s.nodes {
		if rec.n == nil {
			continue
		}
		if v, ok := rec.n.Attrs.Lookup(key); ok {
			s.indexAttr(rec.typ, ks, v, rec.n.ID)
		}
	}
}

// indexAttr files node id under an indexed attribute's value in both
// attribute indexes; unindexAttr is its inverse.
func (s *Store) indexAttr(typ, key Sym, val string, id NodeID) {
	m := s.propIdx[key]
	m[val] = m[val].add(id)
	k := typeAttrKeyT{typ: typ, key: key, val: val}
	s.typeAttr[k] = s.typeAttr[k].add(id)
}

func (s *Store) unindexAttr(typ, key Sym, val string, id NodeID) {
	unfile(s.propIdx[key], val, id)
	unfile(s.typeAttr, typeAttrKeyT{typ: typ, key: key, val: val}, id)
}

// indexAttrsLocked files (or, with file false, unfiles) every indexed
// attribute of rec.
func (s *Store) indexAttrsLocked(rec nodeRec, file bool) {
	for _, kv := range rec.n.Attrs {
		if ks := s.syms.lookup(kv.Key); s.indexed[ks] {
			if file {
				s.indexAttr(rec.typ, ks, kv.Val, rec.n.ID)
			} else {
				s.unindexAttr(rec.typ, ks, kv.Val, rec.n.ID)
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
	var ef Effect
	s.bare(func() { ef = s.mergeNodeLocked(typ, name, attrs) })
	return ef.Node.ID, ef.Created
}

func (s *Store) mergeNodeLocked(typ, name string, attrs map[string]string) Effect {
	tsym := s.syms.intern(typ)
	if id, ok := s.findLocked(tsym, name); ok {
		s.mergeHits++
		rec := s.nodes[id]
		// Copy-on-write: records already published to readers are never
		// touched — augmentation builds a fresh attr slice and node.
		merged := rec.n.Attrs
		for k, v := range attrs {
			if _, exists := rec.n.Attrs.Lookup(k); !exists {
				ks := s.syms.intern(k)
				merged = merged.with(s.syms.str(ks), v)
				if s.indexed[ks] {
					s.indexAttr(tsym, ks, v, id)
				}
			}
		}
		added := len(merged) - len(rec.n.Attrs)
		if added == 0 {
			return Effect{Node: rec.n}
		}
		s.retireNodeLocked(id, rec, true)
		nn := *rec.n
		nn.Attrs = merged
		s.nodes[id].n = &nn
		s.stampNodeLocked(id)
		s.noteMutation(Mutation{Op: OpMergeNode, Type: typ, Name: name, Attrs: attrs})
		return Effect{Node: &nn, Attrs: added}
	}
	s.nextNode++
	id := s.nextNode
	n := &Node{ID: id, Type: s.syms.str(tsym), Name: name, Attrs: s.canonKeys(newAttrs(attrs))}
	s.retireNodeLocked(id, nodeRec{}, false)
	s.installNodeLocked(id, nodeRec{typ: tsym, n: n})
	s.stampNodeLocked(id)
	s.noteMutation(Mutation{Op: OpMergeNode, Type: typ, Name: name, Attrs: attrs})
	return Effect{Node: n, Created: true}
}

// AddEdge inserts a directed edge, deduplicating identical (from, type, to)
// triples: re-adding merges attributes like MergeNode. Returns the edge ID
// and whether a new edge was created.
func (s *Store) AddEdge(from NodeID, typ string, to NodeID, attrs map[string]string) (EdgeID, bool, error) {
	var ef Effect
	var err error
	s.bare(func() { ef, err = s.addEdgePublicLocked(from, typ, to, attrs) })
	if err != nil {
		return 0, false, err
	}
	return ef.Edge.ID, ef.Created, nil
}

func (s *Store) addEdgePublicLocked(from NodeID, typ string, to NodeID, attrs map[string]string) (Effect, error) {
	if _, ok := s.nodeAt(from); !ok {
		return Effect{}, fmt.Errorf("graph: AddEdge: source node %d: %w", from, ErrGone)
	}
	if _, ok := s.nodeAt(to); !ok {
		return Effect{}, fmt.Errorf("graph: AddEdge: target node %d: %w", to, ErrGone)
	}
	ef := s.addEdgeLocked(from, s.syms.intern(typ), to, s.canonKeys(newAttrs(attrs)))
	if ef.Created || ef.Attrs > 0 {
		s.noteMutation(Mutation{Op: OpAddEdge, From: from, Type: typ, To: to, Attrs: attrs})
	}
	if ef.Created {
		s.maybeRebuildAdjLocked()
	}
	return ef, nil
}

// nodeChunk bounds how many node lookups one batch read (Nodes) does
// under a single hold of the read lock, so a long ID list cannot starve
// a writer.
const nodeChunk = 256

func (s *Store) setAttrLocked(id NodeID, key, val string) (Effect, error) {
	rec, ok := s.nodeAt(id)
	if !ok {
		return Effect{}, fmt.Errorf("graph: SetAttr: node %d: %w", id, ErrGone)
	}
	old, had := rec.n.Attrs.Lookup(key)
	if had && old == val {
		return Effect{Node: rec.n}, nil // no-op write: nothing to invalidate or log
	}
	ks := s.syms.intern(key)
	if had && s.indexed[ks] {
		s.unindexAttr(rec.typ, ks, old, id)
	}
	s.retireNodeLocked(id, rec, true)
	nn := *rec.n
	nn.Attrs = rec.n.Attrs.with(s.syms.str(ks), val)
	s.nodes[id].n = &nn
	s.stampNodeLocked(id)
	if s.indexed[ks] {
		s.indexAttr(rec.typ, ks, val, id)
	}
	s.noteMutation(Mutation{Op: OpSetAttr, Node: id, Key: key, Val: val})
	return Effect{Node: &nn, Attrs: 1}, nil
}

// deleteNodeLocked removes node id with its edges, or, unless detach,
// refuses with an *AttachedError while it has any.
func (s *Store) deleteNodeLocked(id NodeID, detach bool) (Effect, error) {
	rec, ok := s.nodeAt(id)
	if !ok {
		return Effect{}, fmt.Errorf("graph: DeleteNode: node %d: %w", id, ErrGone)
	}
	var eids []EdgeID
	s.adj.forEach(id, Both, func(he halfEdge) bool {
		eids = append(eids, he.id)
		return true
	})
	if !detach && len(eids) > 0 {
		slices.Sort(eids) // a self-loop appears twice
		return Effect{}, &AttachedError{Node: id, Edges: len(slices.Compact(eids))}
	}
	var ef Effect
	for _, eid := range eids {
		if s.deleteEdgeLocked(eid) { // a self-loop's second sighting finds it gone
			ef.Edges++
		}
	}
	s.retireNodeLocked(id, rec, true)
	s.uninstallNodeLocked(id, rec)
	delete(s.nodeBegin, id)
	s.adj.removeNode(id)
	s.noteMutation(Mutation{Op: OpDeleteNode, Node: id})
	s.maybeRebuildAdjLocked()
	return ef, nil
}

// uninstallNodeLocked removes node id's current record and every index
// entry derived from it. Shared by deleteNodeLocked and transaction rollback.
func (s *Store) uninstallNodeLocked(id NodeID, rec nodeRec) {
	unfile(s.byType, rec.typ, id)
	unfile(s.byName, rec.n.Name, id)
	s.indexAttrsLocked(rec, false)
	s.nodes[id] = nodeRec{}
	s.nNodes--
}

// installNodeLocked is uninstallNodeLocked's inverse: it publishes a node
// record (growing the slab for a new ID) and files its index entries.
func (s *Store) installNodeLocked(id NodeID, rec nodeRec) {
	s.nodes = slot(s.nodes, int(id))
	s.nodes[id] = rec
	s.nNodes++
	s.byType[rec.typ] = s.byType[rec.typ].add(id)
	s.byName[rec.n.Name] = s.byName[rec.n.Name].add(id)
	s.indexAttrsLocked(rec, true)
}

func (s *Store) deleteEdgePublicLocked(id EdgeID) error {
	if !s.deleteEdgeLocked(id) {
		return fmt.Errorf("graph: DeleteEdge: edge %d: %w", id, ErrGone)
	}
	s.noteMutation(Mutation{Op: OpDeleteEdge, Edge: id})
	s.maybeRebuildAdjLocked()
	return nil
}

// deleteEdgeLocked removes edge id, reporting whether it was there.
func (s *Store) deleteEdgeLocked(id EdgeID) bool {
	rec, ok := s.edgeAt(id)
	if !ok {
		return false
	}
	s.retireEdgeLocked(id, rec, true)
	s.uninstallEdgeLocked(id, rec)
	delete(s.edgeBegin, id)
	s.adj.removeEdge(id, rec.from, rec.to)
	return true
}

// uninstallEdgeLocked removes edge id's current record and derived index
// state, except adjacency (callers handle that; rollback rebuilds it
// wholesale). Shared by deleteEdgeLocked and transaction rollback.
func (s *Store) uninstallEdgeLocked(id EdgeID, rec edgeRec) {
	ek := edgeKeyT{from: rec.from, to: rec.to, typ: rec.typ}
	if s.edgeKey[ek] == id {
		delete(s.edgeKey, ek)
	}
	s.edges[id] = edgeRec{}
	s.nEdges--
	if s.edgeTypeCount[rec.typ]--; s.edgeTypeCount[rec.typ] <= 0 {
		delete(s.edgeTypeCount, rec.typ)
	}
}

// installEdgeLocked publishes an edge record (growing the slab for a new
// ID) and its index entries, again excluding adjacency.
func (s *Store) installEdgeLocked(id EdgeID, rec edgeRec) {
	s.edges = slot(s.edges, int(id))
	s.edges[id] = rec
	s.nEdges++
	s.edgeKey[edgeKeyT{from: rec.from, to: rec.to, typ: rec.typ}] = id
	s.edgeTypeCount[rec.typ]++
}

// migrateEdgesLocked re-points every edge incident to from so it is
// incident to to instead, preserving edge types and attributes and
// deduplicating against existing edges of to. Self-loops created by the
// migration are dropped. Used by the knowledge-fusion stage.
func (s *Store) migrateEdgesLocked(from, to NodeID) error {
	if _, ok := s.nodeAt(from); !ok {
		return fmt.Errorf("graph: MigrateEdges: node %d: %w", from, ErrGone)
	}
	if _, ok := s.nodeAt(to); !ok {
		return fmt.Errorf("graph: MigrateEdges: node %d: %w", to, ErrGone)
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
		s.deleteEdgeLocked(eid)
		if rec.to != to && rec.to != from {
			s.addEdgeLocked(to, rec.typ, rec.to, rec.e.Attrs)
		}
	}
	for _, eid := range ins {
		rec, ok := s.edgeAt(eid)
		if !ok {
			continue // already removed as an out-edge self pair
		}
		s.deleteEdgeLocked(eid)
		if rec.from != to && rec.from != from {
			s.addEdgeLocked(rec.from, rec.typ, to, rec.e.Attrs)
		}
	}
	// One logical record regardless of fan-in/out: replaying the call
	// reproduces every per-edge delete/re-add deterministically.
	s.noteMutation(Mutation{Op: OpMigrateEdges, From: from, To: to})
	s.maybeRebuildAdjLocked()
	return nil
}

// addEdgeLocked inserts the edge, or augments the one already holding
// its (from, type, to) with the attrs it lacks (first writer wins). attrs
// carries canonical keys and is safe to share: it is freshly built or
// comes from an immutable record. Nothing changed unless the effect is
// Created or has Attrs.
func (s *Store) addEdgeLocked(from NodeID, typ Sym, to NodeID, attrs Attrs) Effect {
	ek := edgeKeyT{from: from, to: to, typ: typ}
	if id, ok := s.edgeKey[ek]; ok {
		rec := s.edges[id]
		merged := rec.e.Attrs
		for _, kv := range attrs {
			if _, exists := rec.e.Attrs.Lookup(kv.Key); !exists {
				merged = merged.with(kv.Key, kv.Val)
			}
		}
		added := len(merged) - len(rec.e.Attrs)
		if added == 0 {
			return Effect{Edge: rec.e}
		}
		s.retireEdgeLocked(id, rec, true)
		ne := *rec.e
		ne.Attrs = merged
		s.edges[id].e = &ne
		s.stampEdgeLocked(id)
		return Effect{Edge: &ne, Attrs: added}
	}
	s.nextEdge++
	id := s.nextEdge
	e := &Edge{ID: id, Type: s.syms.str(typ), From: from, To: to, Attrs: attrs}
	s.retireEdgeLocked(id, edgeRec{}, false)
	s.installEdgeLocked(id, edgeRec{from: from, to: to, typ: typ, e: e})
	s.stampEdgeLocked(id)
	s.adj.addEdge(id, from, to, typ)
	return Effect{Edge: e, Created: true}
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
		Nodes:       s.nNodes,
		Edges:       s.nEdges,
		NodesByType: make(map[string]int, len(s.byType)),
		EdgesByType: make(map[string]int, len(s.edgeTypeCount)),
		MergeHits:   s.mergeHits,
	}
	for sy, p := range s.byType {
		st.NodesByType[s.syms.str(sy)] = p.n
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
// per node, then one per edge. The format is stable and diff-friendly —
// the canonical form tests and benchmarks hash — and is not read back:
// SaveBinary (binary.go) writes what Load reads.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.saveLocked(w)
}

func (s *Store) saveLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := persistHeader{
		Magic: persistMagic, Version: 1,
		NextNode: s.nextNode, NextEdge: s.nextEdge,
		Nodes: s.nNodes, Edges: s.nEdges,
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("graph: save header: %w", err)
	}
	for _, rec := range s.nodes {
		if rec.n == nil {
			continue
		}
		if err := enc.Encode(rec.n); err != nil {
			return fmt.Errorf("graph: save node %d: %w", rec.n.ID, err)
		}
	}
	for _, rec := range s.edges {
		if rec.e == nil {
			continue
		}
		if err := enc.Encode(rec.e); err != nil {
			return fmt.Errorf("graph: save edge %d: %w", rec.e.ID, err)
		}
	}
	return bw.Flush()
}

// maxLoadID is the highest ID allocator Load accepts. A record's ID sizes
// the slab and is checked only against its own stream's header, so the
// header is checked against this: a store that had handed out 2^31 IDs
// would not fit the memory of the machine loading it.
const maxLoadID = math.MaxInt32

// loadAllocators installs a stream's ID allocators ahead of its records.
func (s *Store) loadAllocators(nextNode NodeID, nextEdge EdgeID) error {
	if nextNode > maxLoadID || nextEdge > maxLoadID {
		return fmt.Errorf("graph: load: implausible id allocators (next_node %d, next_edge %d)", nextNode, nextEdge)
	}
	s.nextNode, s.nextEdge = nextNode, nextEdge
	return nil
}

// loadNode validates and installs one node during Load. The store is not
// yet shared, so no locking. The store never hands out an ID above its
// allocators, so a record that carries one is corrupt — and must not
// size the slab.
func (s *Store) loadNode(n Node) error {
	if n.ID < 1 || n.ID > s.nextNode {
		return fmt.Errorf("graph: load: invalid node id %d (next_node %d)", n.ID, s.nextNode)
	}
	if _, dup := s.nodeAt(n.ID); dup {
		return fmt.Errorf("graph: load: duplicate node id %d", n.ID)
	}
	tsym := s.syms.intern(n.Type)
	if _, dup := s.findLocked(tsym, n.Name); dup {
		return fmt.Errorf("graph: load: duplicate node (%s, %q)", n.Type, n.Name)
	}
	n.Type, n.Attrs = s.syms.str(tsym), s.canonKeys(n.Attrs)
	s.installNodeLocked(n.ID, nodeRec{typ: tsym, n: &n})
	return nil
}

// loadEdge validates and installs one edge during Load. Adjacency is not
// maintained per edge; finishLoad rebuilds it in one pass.
func (s *Store) loadEdge(e Edge) error {
	if e.ID < 1 || e.ID > s.nextEdge {
		return fmt.Errorf("graph: load: invalid edge id %d (next_edge %d)", e.ID, s.nextEdge)
	}
	if _, dup := s.edgeAt(e.ID); dup {
		return fmt.Errorf("graph: load: duplicate edge id %d", e.ID)
	}
	if _, ok := s.nodeAt(e.From); !ok {
		return fmt.Errorf("graph: load: edge %d references unknown node %d", e.ID, e.From)
	}
	if _, ok := s.nodeAt(e.To); !ok {
		return fmt.Errorf("graph: load: edge %d references unknown node %d", e.ID, e.To)
	}
	tsym := s.syms.intern(e.Type)
	e.Type, e.Attrs = s.syms.str(tsym), s.canonKeys(e.Attrs)
	s.installEdgeLocked(e.ID, edgeRec{from: e.From, to: e.To, typ: tsym, e: &e})
	return nil
}

// finishLoad seals a bulk load: one adjacency rebuild over all loaded
// edges, and the size class the stats version is judged from.
func (s *Store) finishLoad() {
	s.rebuildAdjLocked()
	s.sizeClass = bits.Len(uint(s.nNodes + s.nEdges))
}
