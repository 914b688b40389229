package graph

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"
)

// This file layers multi-version concurrency control over the store.
//
// The scheme is a side-map overlay, not a rewrite of the core state: the
// nodes/edges slabs and every index always describe the *latest* state
// (so bare accessors, the planner's statistics, and persistence are
// untouched), while five auxiliary maps record just enough history for
// point-in-time reads:
//
//   - nodeBegin/edgeBegin: the timestamp at which an entity's current
//     record became visible. Absent means "since forever".
//   - nodeOld/edgeOld: superseded record versions, each tagged with its
//     [begin, end) validity interval.
//   - snaps: a count of open snapshots.
//
// Timestamps come from commitTS, which advances once per committed
// write (bare mutations are single-op transactions). A mutator stamps
// its writes with the provisional timestamp curProv = commitTS+1; the
// stamp becomes meaningful — visible to later snapshots — only when the
// commit publishes commitTS = curProv. A version is visible to a
// snapshot taken at asOf (reading on behalf of the transaction prov,
// or 0 for a plain snapshot) iff
//
//	(begin <= asOf || begin == prov) && !(end <= asOf || end == prov)
//
// i.e. it existed at the snapshot's timestamp, or the snapshot's own
// transaction created it and hasn't itself deleted/overwritten it.
// Validity intervals for one entity are disjoint, so at most one
// version is ever visible.
//
// History is recorded only while someone can observe it: a snapshot is
// open or a transaction is in flight. Otherwise every side map stays
// empty, writes pay two empty-map probes, and reads take the exact
// pre-MVCC path. The maps are purged the moment the last snapshot
// closes. This trades long-snapshot memory (history accumulates while
// a snapshot stays open) for zero steady-state cost, which fits the
// workload here: snapshots live for one statement or one transaction.

// nodeVer is one superseded node version with its validity interval.
type nodeVer struct {
	rec   nodeRec
	begin uint64
	end   uint64
}

// edgeVer is one superseded edge version with its validity interval.
type edgeVer struct {
	rec   edgeRec
	begin uint64
	end   uint64
}

// nodeUndo is a transaction's first-touch pre-image of one node.
type nodeUndo struct {
	rec      nodeRec
	existed  bool
	begin    uint64
	hadBegin bool
	oldLen   int
}

// edgeUndo is a transaction's first-touch pre-image of one edge.
type edgeUndo struct {
	rec      edgeRec
	existed  bool
	begin    uint64
	hadBegin bool
	oldLen   int
}

// ErrTxDone is returned by Commit/Rollback on an already-finished Tx.
var ErrTxDone = errors.New("graph: transaction already committed or rolled back")

// View is the read surface shared by *Store (latest state), *Snap
// (point-in-time state), and *Tx (the transaction's snapshot plus its
// own writes). The Cypher executor reads exclusively through it.
type View interface {
	Node(id NodeID) *Node
	Nodes(dst []*Node, ids []NodeID) []*Node
	Edge(id EdgeID) *Edge
	FindNode(typ, name string) *Node
	NodesByName(name string) []*Node
	NodesByType(typ string) []*Node
	Edges(id NodeID, dir Direction) []*Edge
	IncidentEdges(buf []IncidentEdge, id NodeID, dir Direction, typ string) []IncidentEdge
	AllNodeIDs() []NodeID
	NodeIDsByType(typ string) []NodeID
	NodeIDsByName(name string) []NodeID
	NodeIDsByAttr(key, val string) []NodeID
	NodeIDsByTypeAttr(typ, key, val string) []NodeID
	ForEachNode(fn func(*Node) bool)
}

var (
	_ View = (*Store)(nil)
	_ View = (*Snap)(nil)
	_ View = (*Tx)(nil)
)

// --- write-side bookkeeping ---

// trackingLocked reports whether history must be recorded: someone
// holds a snapshot, or a transaction is in flight (whose writes must
// stay invisible to snapshots opened before it commits).
func (s *Store) trackingLocked() bool {
	return s.curTx != nil || s.snaps.Load() > 0
}

// beginBareLocked/endBareLocked bracket one bare mutation as a
// single-op transaction: stamp with commitTS+1, publish on return.
// Callers hold writerMu and mu.
func (s *Store) beginBareLocked() {
	s.curProv = s.commitTS + 1
}

func (s *Store) endBareLocked() {
	s.commitTS = s.curProv
	s.curProv = 0
	s.maybePurgeLocked()
}

// retireNodeLocked records node id's pre-state before a write mutates
// or deletes it: the open transaction's undo log captures the
// first-touch image, and the version history keeps the superseded
// record visible to older snapshots. rec is the current record
// (zero/ignored when existed is false, i.e. a creation).
func (s *Store) retireNodeLocked(id NodeID, rec nodeRec, existed bool) {
	if tx := s.curTx; tx != nil {
		if _, seen := tx.undoN[id]; !seen {
			b, hadB := s.nodeBegin[id]
			tx.undoN[id] = nodeUndo{rec: rec, existed: existed, begin: b, hadBegin: hadB, oldLen: len(s.nodeOld[id])}
		}
	}
	if existed && s.trackingLocked() {
		s.nodeOld[id] = append(s.nodeOld[id], nodeVer{rec: rec, begin: s.nodeBegin[id], end: s.curProv})
	}
}

func (s *Store) stampNodeLocked(id NodeID) {
	if s.trackingLocked() {
		s.nodeBegin[id] = s.curProv
	}
}

func (s *Store) retireEdgeLocked(id EdgeID, rec edgeRec, existed bool) {
	if tx := s.curTx; tx != nil {
		if _, seen := tx.undoE[id]; !seen {
			b, hadB := s.edgeBegin[id]
			tx.undoE[id] = edgeUndo{rec: rec, existed: existed, begin: b, hadBegin: hadB, oldLen: len(s.edgeOld[id])}
		}
	}
	if existed && s.trackingLocked() {
		s.edgeOld[id] = append(s.edgeOld[id], edgeVer{rec: rec, begin: s.edgeBegin[id], end: s.curProv})
	}
}

func (s *Store) stampEdgeLocked(id EdgeID) {
	if s.trackingLocked() {
		s.edgeBegin[id] = s.curProv
	}
}

// maybePurgeLocked drops all version history once nobody can observe
// it. Cheap when already empty, which is the steady state.
func (s *Store) maybePurgeLocked() {
	if s.trackingLocked() {
		return
	}
	if len(s.nodeBegin) > 0 || len(s.edgeBegin) > 0 || len(s.nodeOld) > 0 || len(s.edgeOld) > 0 {
		clear(s.nodeBegin)
		clear(s.edgeBegin)
		clear(s.nodeOld)
		clear(s.edgeOld)
	}
}

// MVCCStats sizes the MVCC bookkeeping overlay. Every field is zero in
// steady state — no open snapshot or transaction — because history is
// purged the moment the last observer goes away; tests pin that
// invariant and operators can watch for snapshot leaks with it.
type MVCCStats struct {
	Snapshots    int // open snapshots
	NodeVersions int // superseded node versions retained for old snapshots
	EdgeVersions int // superseded edge versions retained
	NodeStamps   int // begin-timestamp entries on current node records
	EdgeStamps   int // begin-timestamp entries on current edge records
}

// MVCCStats reports the current overlay sizes.
func (s *Store) MVCCStats() MVCCStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := MVCCStats{Snapshots: int(s.snaps.Load()), NodeStamps: len(s.nodeBegin), EdgeStamps: len(s.edgeBegin)}
	for _, vers := range s.nodeOld {
		st.NodeVersions += len(vers)
	}
	for _, vers := range s.edgeOld {
		st.EdgeVersions += len(vers)
	}
	return st
}

// Quiesce runs fn with the writer lock held: no bare mutation or
// transaction write can be in flight during fn, and commitTS is stable.
// The durability layer checkpoints under it so a snapshot can never
// capture a half-applied transaction.
func (s *Store) Quiesce(fn func() error) error {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	return fn()
}

// --- snapshots ---

// Snap is a consistent read-only view of the store as of the commit
// timestamp at which it was taken. Opening one never blocks and is
// never blocked by writers; it is safe for concurrent use by multiple
// goroutines. Release it when done so the store can drop history.
type Snap struct {
	s        *Store
	asOf     uint64
	tx       *Tx // non-nil when this is a transaction's own view
	released atomic.Bool
}

// openSnap registers a snapshot of the current committed state. The
// shared lock is enough: it keeps commitTS still, and a writer — who
// decides under the exclusive lock whether anybody can observe history —
// sees the registration either wholly before or wholly after its write.
func (s *Store) openSnap(tx *Tx) *Snap {
	s.mu.RLock()
	sn := &Snap{s: s, asOf: s.commitTS, tx: tx}
	s.snaps.Add(1)
	s.mu.RUnlock()
	return sn
}

// Snapshot opens a snapshot of the current committed state.
func (s *Store) Snapshot() *Snap {
	mSnapshotsOpened.Inc()
	return s.openSnap(nil)
}

// Release closes the snapshot. Idempotent. Only the close that leaves
// history nobody can observe any more takes the exclusive lock, to drop
// it; beside a writing transaction, or with no history, none does.
func (sn *Snap) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	s := sn.s
	s.mu.RLock()
	purge := s.snaps.Add(-1) == 0 && s.curTx == nil &&
		len(s.nodeBegin)+len(s.edgeBegin)+len(s.nodeOld)+len(s.edgeOld) > 0
	s.mu.RUnlock()
	if purge {
		s.mu.Lock()
		s.maybePurgeLocked()
		s.mu.Unlock()
	}
}

// releaseLocked is Release for a caller holding the exclusive lock.
func (sn *Snap) releaseLocked() {
	if sn.released.CompareAndSwap(false, true) {
		sn.s.snaps.Add(-1)
		sn.s.maybePurgeLocked()
	}
}

// prov is the provisional timestamp whose writes this view may see: the
// owning transaction's, or 0 (matching no version) for plain snapshots.
func (sn *Snap) prov() uint64 {
	if sn.tx != nil {
		return sn.tx.prov
	}
	return 0
}

// visible applies the MVCC visibility rule to one [begin, end)
// interval; end == 0 means "still current".
func (sn *Snap) visible(begin, end uint64) bool {
	prov := sn.prov()
	if begin > sn.asOf && (prov == 0 || begin != prov) {
		return false
	}
	if end != 0 && (end <= sn.asOf || (prov != 0 && end == prov)) {
		return false
	}
	return true
}

func (sn *Snap) curNodeVisibleLocked(id NodeID) bool {
	b, ok := sn.s.nodeBegin[id]
	return !ok || sn.visible(b, 0)
}

func (sn *Snap) curEdgeVisibleLocked(id EdgeID) bool {
	b, ok := sn.s.edgeBegin[id]
	return !ok || sn.visible(b, 0)
}

// resolveNodeLocked returns the version of node id visible to the
// snapshot, or nil.
func (sn *Snap) resolveNodeLocked(id NodeID) *Node {
	s := sn.s
	if rec, ok := s.nodeAt(id); ok && sn.curNodeVisibleLocked(id) {
		return rec.n
	}
	if len(s.nodeOld) > 0 {
		for _, v := range s.nodeOld[id] {
			if sn.visible(v.begin, v.end) {
				return v.rec.n
			}
		}
	}
	return nil
}

func (sn *Snap) resolveEdgeLocked(id EdgeID) *Edge {
	s := sn.s
	if rec, ok := s.edgeAt(id); ok && sn.curEdgeVisibleLocked(id) {
		return rec.e
	}
	if len(s.edgeOld) > 0 {
		for _, v := range s.edgeOld[id] {
			if sn.visible(v.begin, v.end) {
				return v.rec.e
			}
		}
	}
	return nil
}

// fastNodesLocked reports that no node history exists, so current state
// is exactly the snapshot state.
func (sn *Snap) fastNodesLocked() bool {
	return len(sn.s.nodeBegin) == 0 && len(sn.s.nodeOld) == 0
}

func (sn *Snap) fastEdgesLocked() bool {
	return len(sn.s.edgeBegin) == 0 && len(sn.s.edgeOld) == 0
}

// overlayNodesLocked calls fn for every node id whose visible version
// lives in the history overlay rather than the current slab: ids whose
// current record is invisible (or gone) but which have a visible old
// version. These are exactly the ids the index-driven paths miss.
func (sn *Snap) overlayNodesLocked(fn func(id NodeID, v nodeVer)) {
	s := sn.s
	for id, vers := range s.nodeOld {
		if _, cur := s.nodeAt(id); cur && sn.curNodeVisibleLocked(id) {
			continue // disjoint intervals: no old version can also be visible
		}
		for _, v := range vers {
			if sn.visible(v.begin, v.end) {
				fn(id, v)
				break
			}
		}
	}
}

func (sn *Snap) overlayEdgesLocked(fn func(id EdgeID, v edgeVer)) {
	s := sn.s
	for id, vers := range s.edgeOld {
		if _, cur := s.edgeAt(id); cur {
			continue // still present: adjacency walks resolve it
		}
		for _, v := range vers {
			if sn.visible(v.begin, v.end) {
				fn(id, v)
				break
			}
		}
	}
}

// Node returns the node visible to the snapshot (nil if absent).
func (sn *Snap) Node(id NodeID) *Node {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	return sn.resolveNodeLocked(id)
}

// Nodes appends the version of each listed node visible to the snapshot
// to dst — nil where the snapshot sees none, so dst stays aligned with
// ids — taking the store's read lock once per nodeChunk ids instead of
// once per node. The lock is released between chunks and before
// returning, so a caller that pauses between batches (a cursor nobody
// pulls, a stream whose client stopped reading) never holds it.
func (sn *Snap) Nodes(dst []*Node, ids []NodeID) []*Node {
	s := sn.s
	dst = slices.Grow(dst, len(ids))
	for len(ids) > 0 {
		chunk := ids[:min(len(ids), nodeChunk)]
		ids = ids[len(chunk):]
		s.mu.RLock()
		if sn.fastNodesLocked() {
			for _, id := range chunk {
				rec, _ := s.nodeAt(id)
				dst = append(dst, rec.n)
			}
		} else {
			for _, id := range chunk {
				dst = append(dst, sn.resolveNodeLocked(id))
			}
		}
		s.mu.RUnlock()
	}
	return dst
}

// Edge returns the edge visible to the snapshot (nil if absent).
func (sn *Snap) Edge(id EdgeID) *Edge {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	return sn.resolveEdgeLocked(id)
}

// FindNode returns the node with the exact (type, name) visible to the
// snapshot, or nil.
func (sn *Snap) FindNode(typ, name string) *Node {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	tsym := s.syms.lookup(typ)
	if id, ok := s.findLocked(tsym, name); ok {
		if n := sn.resolveNodeLocked(id); n != nil {
			return n
		}
	}
	if len(s.nodeOld) > 0 {
		var found *Node
		sn.overlayNodesLocked(func(_ NodeID, v nodeVer) {
			if found == nil && v.rec.typ == tsym && v.rec.n.Name == name {
				found = v.rec.n
			}
		})
		return found
	}
	return nil
}

// visibleIDsLocked is every index read of a snapshot: of ids — a copy of
// the index entry, the caller's to keep — those whose current record the
// snapshot sees, plus the overlay versions match accepts, ascending. With
// no node history that is ids itself; the overlay's IDs come out of a
// map, so only a read that found some sorts.
func (sn *Snap) visibleIDsLocked(ids []NodeID, match func(nodeVer) bool) []NodeID {
	if sn.fastNodesLocked() {
		return ids
	}
	ids = slices.DeleteFunc(ids, func(id NodeID) bool { return !sn.curNodeVisibleLocked(id) })
	current := len(ids)
	sn.overlayNodesLocked(func(id NodeID, v nodeVer) {
		if match(v) {
			ids = append(ids, id)
		}
	})
	if len(ids) > current {
		slices.Sort(ids)
	}
	return ids
}

// resolveAllLocked maps IDs the snapshot sees to the versions it sees.
func (sn *Snap) resolveAllLocked(ids []NodeID) []*Node {
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = sn.resolveNodeLocked(id)
	}
	return out
}

// NodesByName returns all visible nodes named name, sorted by ID.
func (sn *Snap) NodesByName(name string) []*Node {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	return sn.resolveAllLocked(sn.idsByNameLocked(name))
}

// NodesByType returns all visible nodes with the given type, sorted by ID.
func (sn *Snap) NodesByType(typ string) []*Node {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	return sn.resolveAllLocked(sn.idsByTypeLocked(typ))
}

// AllNodeIDs returns every visible node ID, sorted.
func (sn *Snap) AllNodeIDs() []NodeID {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	return sn.allNodeIDsLocked()
}

func (sn *Snap) allNodeIDsLocked() []NodeID {
	return sn.visibleIDsLocked(sn.s.liveNodeIDsLocked(), func(nodeVer) bool { return true })
}

// NodeIDsByType returns the visible node IDs with the given type, sorted.
func (sn *Snap) NodeIDsByType(typ string) []NodeID {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	return sn.idsByTypeLocked(typ)
}

func (sn *Snap) idsByTypeLocked(typ string) []NodeID {
	tsym := sn.s.syms.lookup(typ)
	return sn.visibleIDsLocked(sn.s.byType[tsym].ids(), func(v nodeVer) bool { return v.rec.typ == tsym })
}

// NodeIDsByName returns the visible node IDs named name, sorted.
func (sn *Snap) NodeIDsByName(name string) []NodeID {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	return sn.idsByNameLocked(name)
}

func (sn *Snap) idsByNameLocked(name string) []NodeID {
	return sn.visibleIDsLocked(sn.s.byName[name].ids(), func(v nodeVer) bool { return v.rec.n.Name == name })
}

// NodeIDsByAttr returns the visible node IDs with attrs[key] == val when
// key is indexed; nil (meaning "no index") otherwise, like the Store.
func (sn *Snap) NodeIDsByAttr(key, val string) []NodeID {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if !s.indexed[ks] {
		return nil
	}
	return sn.visibleIDsLocked(s.propIdx[ks][val].ids(), func(v nodeVer) bool { return v.rec.n.Attrs.Get(key) == val })
}

// NodeIDsByTypeAttr returns the visible node IDs with the given type and
// attrs[key] == val when key is indexed; nil otherwise, like the Store.
func (sn *Snap) NodeIDsByTypeAttr(typ, key, val string) []NodeID {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	ks := s.syms.lookup(key)
	if !s.indexed[ks] {
		return nil
	}
	tsym := s.syms.lookup(typ)
	return sn.visibleIDsLocked(s.typeAttr[typeAttrKeyT{typ: tsym, key: ks, val: val}].ids(), func(v nodeVer) bool {
		return v.rec.typ == tsym && v.rec.n.Attrs.Get(key) == val
	})
}

// Edges returns the visible edges incident to id in the given
// direction, sorted by edge ID.
func (sn *Snap) Edges(id NodeID, dir Direction) []*Edge {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	fast := sn.fastEdgesLocked()
	var out []*Edge
	sorted := true
	s.adj.forEach(id, dir, func(he halfEdge) bool {
		var e *Edge
		if fast {
			e = s.edges[he.id].e
		} else if e = sn.resolveEdgeLocked(he.id); e == nil {
			return true
		}
		if n := len(out); n > 0 && out[n-1].ID > e.ID {
			sorted = false
		}
		out = append(out, e)
		return true
	})
	if !fast && len(s.edgeOld) > 0 {
		sn.overlayEdgesLocked(func(_ EdgeID, v edgeVer) {
			if (dir == Out || dir == Both) && v.rec.from == id {
				out = append(out, v.rec.e)
				sorted = false
			}
			if (dir == In || dir == Both) && v.rec.to == id {
				out = append(out, v.rec.e)
				sorted = false
			}
		})
	}
	if !sorted {
		slices.SortFunc(out, func(a, b *Edge) int { return cmp.Compare(a.ID, b.ID) })
	}
	return out
}

// IncidentEdges is the snapshot variant of Store.IncidentEdges: it
// appends the visible incident edges matching typ. Versions never
// change an edge's endpoints or type — only attrs — so the adjacency
// walk's triples are valid for any visible version; an edge is emitted
// iff some version of it is visible. Deleted-but-visible edges come
// from the history overlay (appended out of walk order; the tail is
// sorted when that happens).
func (sn *Snap) IncidentEdges(buf []IncidentEdge, id NodeID, dir Direction, typ string) []IncidentEdge {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	any := typ == ""
	var want Sym
	if !any {
		want = s.syms.lookup(typ) // symNone matches no edge
	}
	fast := sn.fastEdgesLocked()
	start := len(buf)
	s.adj.forEach(id, dir, func(he halfEdge) bool {
		if !any && he.typ != want {
			return true
		}
		if !fast && sn.resolveEdgeLocked(he.id) == nil {
			return true
		}
		buf = append(buf, IncidentEdge{ID: he.id, Other: he.other, Type: s.syms.str(he.typ)})
		return true
	})
	if !fast && len(s.edgeOld) > 0 {
		added := false
		sn.overlayEdgesLocked(func(eid EdgeID, v edgeVer) {
			if !any && v.rec.typ != want {
				return
			}
			ts := s.syms.str(v.rec.typ)
			if (dir == Out || dir == Both) && v.rec.from == id {
				buf = append(buf, IncidentEdge{ID: eid, Other: v.rec.to, Type: ts})
				added = true
			}
			if (dir == In || dir == Both) && v.rec.to == id {
				buf = append(buf, IncidentEdge{ID: eid, Other: v.rec.from, Type: ts})
				added = true
			}
		})
		if added {
			slices.SortFunc(buf[start:], func(a, b IncidentEdge) int { return cmp.Compare(a.ID, b.ID) })
		}
	}
	return buf
}

// ForEachNode calls fn for every visible node in ID order; iteration
// stops if fn returns false. Like the Store variant, the lock is not
// held across fn calls.
func (sn *Snap) ForEachNode(fn func(*Node) bool) {
	sn.s.mu.RLock()
	ids := sn.allNodeIDsLocked()
	sn.s.mu.RUnlock()
	forEachNodeChunked(sn, ids, fn)
}

// forEachNodeChunked resolves ids through v a chunk at a time and calls
// fn for every node found, outside the lock.
func forEachNodeChunked(v View, ids []NodeID, fn func(*Node) bool) {
	buf := make([]*Node, 0, min(len(ids), nodeChunk))
	for len(ids) > 0 {
		chunk := ids[:min(len(ids), nodeChunk)]
		ids = ids[len(chunk):]
		buf = v.Nodes(buf[:0], chunk)
		for _, n := range buf {
			if n != nil && !fn(n) {
				return
			}
		}
	}
}

// --- transactions ---

// Tx is a store transaction: a stable snapshot for reads (taken at
// BeginTx) plus buffered-visibility writes. Writes go to the latest
// state immediately — the store is single-writer, and the transaction
// holds the writer lock from its first write until Commit or Rollback —
// but stay invisible to every other snapshot until Commit, and are
// undone in full (records, indexes, ID allocators, adjacency) by
// Rollback. Reads through the Tx see the snapshot plus the
// transaction's own writes. A Tx is intended for use by one goroutine;
// concurrent transactions from different goroutines serialize on the
// writer lock at their first write.
type Tx struct {
	s       *Store
	snap    *Snap
	prov    uint64
	writing bool
	done    bool

	// walBuf holds the transaction's mutation records, published to the
	// durability hook only at Commit (wrapped in tx_begin/tx_commit when
	// more than one): rolled-back transactions never touch the WAL, and
	// a crash between the commit records leaves a dangling group that
	// recovery discards. The array is the store's, borrowed while this
	// transaction holds writerMu.
	walBuf []Mutation

	// undoN and undoE are the first-touch images Rollback restores,
	// borrowed from the store like walBuf.
	undoN map[NodeID]nodeUndo
	undoE map[EdgeID]edgeUndo

	preNextNode  NodeID
	preNextEdge  EdgeID
	preMergeHits int64
}

// BeginTx opens a transaction whose reads see the store as of now.
// Never blocks: the writer lock is acquired lazily at the first write.
func (s *Store) BeginTx() *Tx {
	mTxBegin.Inc()
	tx := &Tx{s: s}
	tx.snap = s.openSnap(tx)
	return tx
}

// ensureWriter upgrades the transaction to a writer: take the writer
// lock, pin the provisional timestamp, and capture allocator state for
// rollback.
func (tx *Tx) ensureWriter() {
	if tx.writing {
		return
	}
	if tx.done {
		panic("graph: write on finished Tx")
	}
	s := tx.s
	s.writerMu.Lock()
	tx.walBuf, s.walBuf = s.walBuf, nil
	tx.undoN, s.undoN = s.undoN, nil
	tx.undoE, s.undoE = s.undoE, nil
	if tx.undoN == nil {
		tx.undoN = make(map[NodeID]nodeUndo)
	}
	if tx.undoE == nil {
		tx.undoE = make(map[EdgeID]edgeUndo)
	}
	s.mu.Lock()
	tx.writing = true
	tx.prov = s.commitTS + 1
	s.curProv = tx.prov
	s.curTx = tx
	tx.preNextNode, tx.preNextEdge, tx.preMergeHits = s.nextNode, s.nextEdge, s.mergeHits
	s.mu.Unlock()
}

// MergeNode is the transactional MergeNode.
func (tx *Tx) MergeNode(typ, name string, attrs map[string]string) (NodeID, bool) {
	tx.ensureWriter()
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	return tx.s.mergeNodeLocked(typ, name, attrs)
}

// AddEdge is the transactional AddEdge.
func (tx *Tx) AddEdge(from NodeID, typ string, to NodeID, attrs map[string]string) (EdgeID, bool, error) {
	tx.ensureWriter()
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	return tx.s.addEdgePublicLocked(from, typ, to, attrs)
}

// SetAttr is the transactional SetAttr.
func (tx *Tx) SetAttr(id NodeID, key, val string) error {
	tx.ensureWriter()
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	return tx.s.setAttrLocked(id, key, val)
}

// DeleteNode is the transactional DeleteNode.
func (tx *Tx) DeleteNode(id NodeID) error {
	tx.ensureWriter()
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	return tx.s.deleteNodeLocked(id)
}

// DeleteEdge is the transactional DeleteEdge.
func (tx *Tx) DeleteEdge(id EdgeID) error {
	tx.ensureWriter()
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	return tx.s.deleteEdgePublicLocked(id)
}

// MigrateEdges is the transactional MigrateEdges.
func (tx *Tx) MigrateEdges(from, to NodeID) error {
	tx.ensureWriter()
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	return tx.s.migrateEdgesLocked(from, to)
}

// Commit logs the transaction, then publishes it. The durability hook
// receives the buffered group while only writerMu is held — every writer
// and Quiesce serialize on it, so the log and the store still change
// together as far as a checkpoint can tell — and readers never wait on
// the group's encode, write or fsync. The store lock is taken only to
// advance commitTS: the group is in the log before any snapshot sees it.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	mTxCommit.Inc()
	s := tx.s
	if !tx.writing {
		tx.snap.Release()
		return nil
	}
	if hook := s.onMutation; hook != nil && len(tx.walBuf) > 0 {
		// A single-mutation transaction logs as a bare record; a larger
		// group is wrapped so recovery can treat it atomically.
		if len(tx.walBuf) > 1 {
			hook(Mutation{Op: OpTxBegin})
		}
		for i := range tx.walBuf {
			hook(tx.walBuf[i])
		}
		if len(tx.walBuf) > 1 {
			hook(Mutation{Op: OpTxCommit})
		}
	}
	s.mu.Lock()
	s.commitTS = tx.prov
	s.curTx = nil
	s.curProv = 0
	tx.snap.releaseLocked()
	s.mu.Unlock()
	tx.releaseWriter()
	return nil
}

// walBufKeep is the largest mutation buffer, in records, and the largest
// undo map, in entries, a transaction leaves behind for the next: eight
// 500-row batches' worth (a batch logs about 650 records and append's
// doubling takes its array to 1024). A larger one belongs to a one-off
// load and would only pin memory.
const walBufKeep = 4096

// releaseWriter hands the mutation buffer and the undo maps back to the
// store, emptied, for the next transaction — a batch a second would
// otherwise double fresh ones up to ≈160 KB each time — and gives up the
// writer lock.
func (tx *Tx) releaseWriter() {
	s := tx.s
	if cap(tx.walBuf) <= walBufKeep {
		clear(tx.walBuf)
		s.walBuf = tx.walBuf[:0]
	}
	if len(tx.undoN) <= walBufKeep {
		clear(tx.undoN)
		s.undoN = tx.undoN
	}
	if len(tx.undoE) <= walBufKeep {
		clear(tx.undoE)
		s.undoE = tx.undoE
	}
	tx.walBuf, tx.undoN, tx.undoE = nil, nil, nil
	s.writerMu.Unlock()
}

// Rollback undoes every write of the transaction — records, indexes,
// ID allocators, adjacency — and discards its WAL buffer.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	mTxRollback.Inc()
	s := tx.s
	if !tx.writing {
		tx.snap.Release()
		return nil
	}
	s.mu.Lock()
	// Put every touched entity's pre-image back.
	for id, u := range tx.undoE {
		if rec, ok := s.edgeAt(id); ok {
			s.uninstallEdgeLocked(id, rec)
		}
		if u.existed {
			s.installEdgeLocked(id, u.rec)
		}
		restoreVersions(s.edgeBegin, s.edgeOld, id, u.begin, u.hadBegin, u.oldLen)
	}
	for id, u := range tx.undoN {
		rec, ok := s.nodeAt(id)
		switch {
		case ok && u.existed: // same ID, so same label and name: only the attrs moved
			s.indexAttrsLocked(rec, false)
			s.nodes[id] = u.rec
			s.indexAttrsLocked(u.rec, true)
		case ok:
			s.uninstallNodeLocked(id, rec)
		case u.existed:
			s.installNodeLocked(id, u.rec)
		}
		restoreVersions(s.nodeBegin, s.nodeOld, id, u.begin, u.hadBegin, u.oldLen)
	}
	// The ID allocators go back, and the slabs give up the slots past them.
	s.nextNode, s.nextEdge, s.mergeHits = tx.preNextNode, tx.preNextEdge, tx.preMergeHits
	s.nodes = cutSlab(s.nodes, int(s.nextNode)+1)
	s.edges = cutSlab(s.edges, int(s.nextEdge)+1)
	// Re-installed pre-images break the overlay's ascending-ID order, so
	// adjacency is repacked — unless no edge was installed or removed, in
	// which case it is exactly as the transaction found it.
	if len(tx.undoE) > 0 {
		s.rebuildAdjLocked()
	}
	s.noteSizeLocked()
	s.curTx = nil
	s.curProv = 0
	tx.snap.releaseLocked()
	s.mu.Unlock()
	tx.releaseWriter()
	return nil
}

// restoreVersions puts one entity's version bookkeeping back to what a
// transaction's first touch found.
func restoreVersions[ID comparable, V any](begin map[ID]uint64, old map[ID][]V, id ID, b uint64, hadBegin bool, oldLen int) {
	if hadBegin {
		begin[id] = b
	} else {
		delete(begin, id)
	}
	if vers := old[id]; len(vers) > oldLen {
		if oldLen == 0 {
			delete(old, id)
		} else {
			old[id] = vers[:oldLen]
		}
	}
}

// --- Tx as a View: the snapshot plus the transaction's own writes ---

func (tx *Tx) Node(id NodeID) *Node { return tx.snap.Node(id) }
func (tx *Tx) Nodes(dst []*Node, ids []NodeID) []*Node {
	return tx.snap.Nodes(dst, ids)
}
func (tx *Tx) Edge(id EdgeID) *Edge            { return tx.snap.Edge(id) }
func (tx *Tx) FindNode(typ, name string) *Node { return tx.snap.FindNode(typ, name) }
func (tx *Tx) NodesByName(name string) []*Node { return tx.snap.NodesByName(name) }
func (tx *Tx) NodesByType(typ string) []*Node  { return tx.snap.NodesByType(typ) }
func (tx *Tx) Edges(id NodeID, dir Direction) []*Edge {
	return tx.snap.Edges(id, dir)
}
func (tx *Tx) IncidentEdges(buf []IncidentEdge, id NodeID, dir Direction, typ string) []IncidentEdge {
	return tx.snap.IncidentEdges(buf, id, dir, typ)
}
func (tx *Tx) AllNodeIDs() []NodeID               { return tx.snap.AllNodeIDs() }
func (tx *Tx) NodeIDsByType(typ string) []NodeID  { return tx.snap.NodeIDsByType(typ) }
func (tx *Tx) NodeIDsByName(name string) []NodeID { return tx.snap.NodeIDsByName(name) }
func (tx *Tx) NodeIDsByAttr(key, val string) []NodeID {
	return tx.snap.NodeIDsByAttr(key, val)
}
func (tx *Tx) NodeIDsByTypeAttr(typ, key, val string) []NodeID {
	return tx.snap.NodeIDsByTypeAttr(typ, key, val)
}
func (tx *Tx) ForEachNode(fn func(*Node) bool) { tx.snap.ForEachNode(fn) }

// --- latest-state reads ---
//
// Writers sometimes need the latest state rather than their snapshot:
// MergeNode and AddEdge act on latest (single-writer semantics), so the
// pre-write diffing and post-write binding around them must too.

func (tx *Tx) LatestNode(id NodeID) *Node { return tx.s.Node(id) }
func (tx *Tx) LatestEdge(id EdgeID) *Edge { return tx.s.Edge(id) }
func (tx *Tx) LatestEdges(id NodeID, dir Direction) []*Edge {
	return tx.s.Edges(id, dir)
}
func (tx *Tx) LatestFindNode(typ, name string) *Node { return tx.s.FindNode(typ, name) }
