package graph

import (
	"errors"
	"fmt"
)

// This file defines the logical mutation log the durability layer hangs
// off the store: every state-changing public operation describes itself
// as a Mutation, and a hook installed with SetMutationHook observes the
// sequence in exactly the order the mutations applied. Replaying the
// same Mutation sequence against the same starting state reproduces the
// store byte-for-byte (including NextNode/NextEdge allocation), which is
// what makes the write-ahead log in internal/storage a correct recovery
// mechanism.

// MutationOp names one replayable store operation.
type MutationOp string

const (
	OpMergeNode    MutationOp = "merge_node"
	OpAddEdge      MutationOp = "add_edge"
	OpSetAttr      MutationOp = "set_attr"
	OpDeleteNode   MutationOp = "delete_node"
	OpDeleteEdge   MutationOp = "delete_edge"
	OpMigrateEdges MutationOp = "migrate_edges"

	// Transaction markers. They carry no payload and mutate nothing;
	// the WAL writes them around a committed multi-mutation transaction
	// so recovery can replay the group atomically (mvcc.go). A
	// tx_rollback record never appears in logs this code writes —
	// rolled-back transactions are never logged — but recovery accepts
	// it (discarding the open group) for forward compatibility.
	OpTxBegin    MutationOp = "tx_begin"
	OpTxCommit   MutationOp = "tx_commit"
	OpTxRollback MutationOp = "tx_rollback"
)

// Mutation is one logical store mutation, carrying the arguments of the
// public call that produced it (not its effect): replay re-issues the
// call, and because every store operation is deterministic given the
// prior state, the effect reproduces exactly. Fields are a union across
// ops; unused fields are zero.
type Mutation struct {
	Op    MutationOp
	Type  string            // merge_node: node type; add_edge: edge type
	Name  string            // merge_node: node name
	Attrs map[string]string // merge_node / add_edge: input attributes
	From  NodeID            // add_edge source; migrate_edges from
	To    NodeID            // add_edge target; migrate_edges to
	Node  NodeID            // set_attr / delete_node target
	Edge  EdgeID            // delete_edge target
	Key   string            // set_attr key
	Val   string            // set_attr value
}

// SetMutationHook installs fn, called after every effective mutation
// (calls that change no state — a MergeNode hit adding no attributes, a
// SetAttr writing the value already present — do not fire), in exactly
// the order the mutations applied. A bare mutation reaches fn under the
// store's write lock. A transaction's group (tx_begin, its mutations,
// tx_commit) reaches fn from Commit with only the writer lock held,
// before the group is visible to any snapshot: readers proceed while fn
// runs, writers and Quiesce wait. The hook must not call back into the
// store or retain the Attrs map past its return; the write-ahead log
// encodes the record inside the callback. Passing nil uninstalls; the
// call waits for an open writing transaction, so once it returns no
// hook call is in flight.
func (s *Store) SetMutationHook(fn func(Mutation)) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onMutation = fn
}

// noteMutation records one effective mutation: the planner-facing stats
// version bumps if the store changed size class (stats.go), then the
// durability hook (if any) observes the mutation. Callers hold the write
// lock.
func (s *Store) noteMutation(m Mutation) {
	s.noteSizeLocked()
	if s.onMutation != nil {
		if tx := s.curTx; tx != nil {
			// Transactional write: buffer instead of logging — the group
			// reaches the hook only if the transaction commits. Attrs are
			// cloned because the hook contract lets the caller reuse the
			// map after the call returns.
			tx.walBuf = append(tx.walBuf, cloneMutation(m))
			return
		}
		s.onMutation(m)
	}
}

// cloneMutation deep-copies the one reference field, Attrs.
func cloneMutation(m Mutation) Mutation {
	if len(m.Attrs) > 0 {
		attrs := make(map[string]string, len(m.Attrs))
		for k, v := range m.Attrs {
			attrs[k] = v
		}
		m.Attrs = attrs
	}
	return m
}

// BeginBulk opens a load bracket (recovery replay, server boot ingest,
// a bulk import): per-mutation adjacency compaction checks are deferred
// until the matching EndBulk. Brackets nest; each BeginBulk must be
// paired with exactly one EndBulk.
func (s *Store) BeginBulk() {
	s.mu.Lock()
	s.bulk++
	s.mu.Unlock()
}

// EndBulk closes a BeginBulk bracket. Closing the outermost one seals
// it: one adjacency repack, only if the bracket's edges pushed the
// overlay past the threshold bare writes use, so a short bracket costs
// nothing and a load past the threshold packs exactly once.
func (s *Store) EndBulk() {
	s.mu.Lock()
	if s.bulk--; s.bulk == 0 {
		s.maybeRebuildAdjLocked()
	}
	s.mu.Unlock()
}

// ApplyBatch applies a mutation slice as one transaction: the whole batch
// reaches the durability hook as a single tx_begin/.../tx_commit group
// (one group-committed WAL append). On error the transaction rolls back
// (nothing is applied or logged) and the returned index names the
// failing mutation.
func (s *Store) ApplyBatch(ms []Mutation) (int, error) {
	tx := s.BeginTx()
	for i, m := range ms {
		if err := tx.Apply(m); err != nil {
			tx.Rollback()
			return i, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return len(ms), nil
}

// Apply re-issues one mutation on the transaction. Transaction markers
// are refused: a Tx is itself the group boundary.
func (tx *Tx) Apply(m Mutation) error {
	if m.isMarker() {
		return fmt.Errorf("graph: Tx.Apply: unsupported mutation op %q", m.Op)
	}
	var err error
	tx.locked(func() { err = tx.s.applyLocked(m) })
	return err
}

// Apply replays one mutation as a bare write. It is how recovery turns a
// surviving WAL prefix back into state; the caller installs the mutation
// hook only after replay, so replay itself is never re-logged.
// Transaction markers mutate nothing: recovery's committed-transaction
// fold consumes them before replay, and they are accepted here so a
// caller replaying a raw record stream doesn't fail on one.
func (s *Store) Apply(m Mutation) error {
	if m.isMarker() {
		return nil
	}
	var err error
	s.bare(func() { err = s.applyLocked(m) })
	return err
}

func (m *Mutation) isMarker() bool {
	return m.Op == OpTxBegin || m.Op == OpTxCommit || m.Op == OpTxRollback
}

// applyLocked is the one mutation dispatch, for replay and ApplyBatch:
// every op goes to the write that logged it. A node delete always
// detaches: a delete_node record stands for the node and its edges.
func (s *Store) applyLocked(m Mutation) error {
	var err error
	switch m.Op {
	case OpMergeNode:
		s.mergeNodeLocked(m.Type, m.Name, m.Attrs)
	case OpAddEdge:
		_, err = s.addEdgePublicLocked(m.From, m.Type, m.To, m.Attrs)
	case OpSetAttr:
		_, err = s.setAttrLocked(m.Node, m.Key, m.Val)
	case OpDeleteNode:
		_, err = s.deleteNodeLocked(m.Node, true)
	case OpDeleteEdge:
		err = s.deleteEdgePublicLocked(m.Edge)
	case OpMigrateEdges:
		err = s.migrateEdgesLocked(m.From, m.To)
	default:
		err = fmt.Errorf("graph: Apply: unknown mutation op %q", m.Op)
	}
	return err
}

// bare runs fn as one bare write: a single-op transaction holding the
// writer lock and the store lock, published when fn returns.
func (s *Store) bare(fn func()) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginBareLocked()
	defer s.endBareLocked()
	fn()
}

// Effect is what one Tx write did to the latest state. Callers count and
// bind from it instead of reading the store around the write.
type Effect struct {
	Node    *Node // the node record a MergeNode or SetAttr left
	Edge    *Edge // the edge record an AddEdge left
	Created bool  // the write created Node or Edge
	Attrs   int   // attributes a merge hit added or a SET changed; 0 on creation
	Edges   int   // DeleteNode: distinct edges deleted with the node
}

// ErrGone is the error a write returns, wrapped, when the node or edge it
// names does not exist in the latest state: never created, or deleted.
var ErrGone = errors.New("unknown or deleted")

// AttachedError is DeleteNode's refusal, without detach, to delete a node
// that still has edges. Nothing has changed when it is returned.
type AttachedError struct {
	Node  NodeID
	Edges int // distinct incident edges; a self-loop counts once
}

func (e *AttachedError) Error() string {
	return fmt.Sprintf("graph: DeleteNode: node %d still has %d edge(s)", e.Node, e.Edges)
}
