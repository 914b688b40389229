package graph

import (
	"bytes"
	"fmt"
	"testing"
)

// TestApplyBatchSingleWALGroup: a batch applies as ONE write-ahead-log
// transaction group — a single tx_begin/tx_commit pair around the
// mutations, not a bare record per mutation.
func TestApplyBatchSingleWALGroup(t *testing.T) {
	s := New()
	var log []MutationOp
	s.SetMutationHook(func(m Mutation) { log = append(log, m.Op) })

	const n = 200
	ms := make([]Mutation, 0, n)
	for i := 0; i < n; i++ {
		ms = append(ms, Mutation{Op: OpMergeNode, Type: "Host", Name: fmt.Sprintf("h%d", i)})
	}
	applied, err := s.ApplyBatch(ms)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if applied != n {
		t.Fatalf("applied = %d, want %d", applied, n)
	}

	if len(log) != n+2 || log[0] != OpTxBegin || log[len(log)-1] != OpTxCommit {
		t.Fatalf("log has %d records, first %q last %q; want %d wrapped in tx_begin/tx_commit",
			len(log), log[0], log[len(log)-1], n+2)
	}
	begins, commits := 0, 0
	for _, op := range log {
		switch op {
		case OpTxBegin:
			begins++
		case OpTxCommit:
			commits++
		}
	}
	if begins != 1 || commits != 1 {
		t.Errorf("tx markers: %d begins, %d commits; want exactly one group", begins, commits)
	}
	if got := s.CountNodes(); got != n {
		t.Errorf("CountNodes = %d, want %d", got, n)
	}
}

// TestApplyBatchAtomic: a batch containing a failing mutation rolls the
// whole batch back — nothing reaches the store or the WAL hook, and the
// failing index is reported.
func TestApplyBatchAtomic(t *testing.T) {
	s := New()
	var log []MutationOp
	s.SetMutationHook(func(m Mutation) { log = append(log, m.Op) })

	ms := []Mutation{
		{Op: OpMergeNode, Type: "Host", Name: "good"},
		{Op: OpSetAttr, Node: NodeID(1 << 30), Key: "k", Val: "v"}, // no such node
		{Op: OpMergeNode, Type: "Host", Name: "never"},
	}
	idx, err := s.ApplyBatch(ms)
	if err == nil {
		t.Fatal("ApplyBatch succeeded with an invalid mutation")
	}
	if idx != 1 {
		t.Errorf("failing index = %d, want 1", idx)
	}
	if len(log) != 0 {
		t.Errorf("WAL hook observed %v after rollback, want nothing", log)
	}
	if got := s.CountNodes(); got != 0 {
		t.Errorf("CountNodes = %d after rollback, want 0", got)
	}
	if n := latest(t, s, func(sn *Snap) *Node { return sn.FindNode("Host", "good") }); n != nil {
		t.Errorf("node %q survived the rollback", "good")
	}
}

// TestBulkBracketDefersSeal: a BeginBulk/EndBulk bracket defers only the
// adjacency seal. Brackets nest (a transaction inside a load bracket
// seals nothing on its own) and the stats version moves inside one
// exactly as it would outside. The seal is proportional: a report-sized
// commit on a 100k-edge store leaves the packed base alone, and only a
// load past the overlay threshold packs — once, at the end.
func TestBulkBracketDefersSeal(t *testing.T) {
	t.Run("stats", testBulkBracketStats)
	t.Run("adjacency", testBulkSealAdjacency)
}

// adjBase is the identity of the packed adjacency arrays: a repack
// allocates new ones.
type adjBase struct {
	out, in *halfEdge
	n       int
	maxEdge EdgeID
}

func baseOf(s *Store) adjBase {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a := s.adj
	b := adjBase{n: len(a.out.ids), maxEdge: a.baseMaxEdge}
	if b.n > 0 {
		b.out, b.in = &a.out.ids[0], &a.in.ids[0]
	}
	return b
}

func pendingOf(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.adj.pending
}

// packedStore builds `nodes` hosts and `edges` distinct "E" edges among
// them in one bulk bracket; the seal packs every edge into the base.
func packedStore(t *testing.T, nodes, edges int) (*Store, []NodeID) {
	t.Helper()
	s := New()
	s.BeginBulk()
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i], _ = s.MergeNode("Host", fmt.Sprintf("h%d", i), nil)
	}
	for i := 0; i < edges; i++ {
		from := i % nodes
		if _, _, err := s.AddEdge(ids[from], "E", ids[(from+1+13*(i/nodes))%nodes], nil); err != nil {
			t.Fatal(err)
		}
	}
	s.EndBulk()
	if b := baseOf(s); b.n != edges || pendingOf(s) != 0 {
		t.Fatalf("load sealed with %d packed edges and %d pending, want %d and 0", b.n, pendingOf(s), edges)
	}
	return s, ids
}

func testBulkSealAdjacency(t *testing.T) {
	const nodes, edges = 20000, 100000
	s, ids := packedStore(t, nodes, edges)
	base := baseOf(s)

	// A report's worth, committed as one group: 1 + 10×2 + 1 = 22
	// mutations, 11 of them new edges.
	tx := s.BeginTx()
	rep := tx.MergeNode("Report", "r", map[string]string{"report_id": "r"}).Node.ID
	for i := 0; i < 10; i++ {
		e := tx.MergeNode("Entity", fmt.Sprintf("e%d", i), nil).Node.ID
		if _, err := tx.AddEdge(rep, "MENTIONS", e, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.AddEdge(ids[0], "MENTIONS", rep, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := baseOf(s); got != base {
		t.Fatalf("a 22-mutation commit repacked the %d-edge base", edges)
	}
	if p := pendingOf(s); p != 2*11 {
		t.Errorf("overlay holds %d entries, want the group's 22", p)
	}
	if got := len(latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(rep, Out) })); got != 10 {
		t.Errorf("Edges(report, Out) = %d, want 10", got)
	}
	// ids[0] has five packed out-edges; the group's edge follows them.
	if outs := latest(t, s, func(sn *Snap) []IncidentEdge { return sn.IncidentEdges(nil, ids[0], Out, "") }); len(outs) != 6 || outs[5].Other != rep || outs[5].Type != "MENTIONS" {
		t.Errorf("ids[0]'s out-edges read %+v, want five packed then one to the report", outs)
	}
	sn := s.Snapshot()
	if got := len(sn.Edges(rep, Out)); got != 10 {
		t.Errorf("snapshot Edges(report, Out) = %d, want 10", got)
	}
	sn.Release()
	checkLiveCounts(t, s)

	// A load past the threshold: nothing packs while the bracket is open,
	// the seal packs once.
	s.BeginBulk()
	for i := 0; i < 30000; i++ {
		from := i % nodes
		if _, _, err := s.AddEdge(ids[from], "F", ids[(from+7+i/nodes)%nodes], nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := baseOf(s); got != base {
		t.Fatal("the base was repacked inside an open bulk bracket")
	}
	s.EndBulk()
	if got := baseOf(s); got == base || got.n != edges+11+30000 || pendingOf(s) != 0 {
		t.Fatalf("seal left %d packed edges and %d pending, want %d and 0", got.n, pendingOf(s), edges+11+30000)
	}
	if got := len(latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(rep, Out) })); got != 10 {
		t.Errorf("after the repack Edges(report, Out) = %d, want 10", got)
	}
	checkLiveCounts(t, s)
}

func testBulkBracketStats(t *testing.T) {
	s := New()
	s.BeginBulk()
	ids := make([]NodeID, 0, 100)
	for i := 0; i < 100; i++ {
		id, _ := s.MergeNode("Host", fmt.Sprintf("h%d", i), nil)
		ids = append(ids, id)
	}
	// 0 -> 100 entities: one bump per size class, bracket or not.
	if sv := s.StatsVersion(); sv != 1+7 {
		t.Fatalf("StatsVersion is %d mid-bracket, want 8", sv)
	}

	// Nested: a transaction inside the load. Its commit takes the store
	// past 128 entities and seals nothing.
	base := baseOf(s)
	tx := s.BeginTx()
	for i := 0; i < 50; i++ {
		if _, err := tx.AddEdge(ids[i], "talks_to", ids[i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if sv := s.StatsVersion(); sv != 1+8 {
		t.Fatalf("StatsVersion is %d after the nested commit, want 9", sv)
	}
	if baseOf(s) != base || pendingOf(s) != 100 {
		t.Fatal("the nested commit sealed adjacency while the outer bracket was open")
	}

	s.EndBulk()
	if sv := s.StatsVersion(); sv != 1+8 {
		t.Errorf("StatsVersion is %d after the seal, want 9", sv)
	}
	// The deferred adjacency seal must leave reads correct.
	if got := len(latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(ids[0], Out) })); got != 1 {
		t.Errorf("Edges(ids[0], Out) = %d, want 1", got)
	}
}

// TestNodeOnlyRollbackKeepsAdjacency: a failed batch that touched no
// edge — new nodes, a merge hit, a SetAttr on an indexed key, deleting
// an isolated node — rolls back without repacking a packed store's
// adjacency, and the store reads and saves exactly as before.
func TestNodeOnlyRollbackKeepsAdjacency(t *testing.T) {
	s, ids := packedStore(t, 2000, 10000)
	s.IndexAttr("family")
	lone, _ := s.MergeNode("Host", "lone", map[string]string{"family": "x"})
	before, base, pending := saveBytesOf(t, s), baseOf(s), pendingOf(s)

	var ms []Mutation
	for i := 0; i < 50; i++ {
		ms = append(ms, Mutation{Op: OpMergeNode, Type: "Host", Name: fmt.Sprintf("ghost-%d", i), Attrs: map[string]string{"family": "x"}})
	}
	ms = append(ms,
		Mutation{Op: OpMergeNode, Type: "Host", Name: "h3", Attrs: map[string]string{"extra": "1"}},
		Mutation{Op: OpSetAttr, Node: ids[5], Key: "family", Val: "x"},
		Mutation{Op: OpDeleteNode, Node: lone},
		Mutation{Op: OpSetAttr, Node: NodeID(1 << 30), Key: "k", Val: "v"}, // no such node
	)
	if idx, err := s.ApplyBatch(ms); err == nil || idx != len(ms)-1 {
		t.Fatalf("ApplyBatch = %d, %v; want the last mutation to fail", idx, err)
	}
	if got := baseOf(s); got != base || pendingOf(s) != pending {
		t.Fatal("rolling back a node-only batch repacked adjacency")
	}
	if !bytes.Equal(saveBytesOf(t, s), before) {
		t.Fatal("rollback did not restore the Save stream")
	}
	checkLiveCounts(t, s)
	sn := s.Snapshot()
	if got := sn.NodeIDsByAttr("family", "x"); len(got) != 1 || got[0] != lone {
		t.Errorf("family=x reads %v after rollback, want only %d", got, lone)
	}
	edges := 0
	for _, id := range sn.AllNodeIDs() {
		edges += len(sn.Edges(id, Out))
	}
	sn.Release()
	if edges != 10000 {
		t.Errorf("snapshot sees %d edges, want 10000", edges)
	}

	// The IDs the rollback handed back carry edges again, read through the
	// base that outlived them.
	a, _ := s.MergeNode("Host", "after", nil)
	if a != lone+1 {
		t.Fatalf("next node ID %d, want %d", a, lone+1)
	}
	if _, _, err := s.AddEdge(a, "E", ids[0], nil); err != nil {
		t.Fatal(err)
	}
	if got := latest(t, s, func(sn *Snap) []IncidentEdge { return sn.IncidentEdges(nil, a, Out, "") }); len(got) != 1 || got[0].Other != ids[0] {
		t.Errorf("new node's out-edges read %+v", got)
	}
	if got := len(latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(ids[0], In) })); got != 5+1 {
		t.Errorf("Edges(ids[0], In) = %d, want 6", got)
	}
	checkLiveCounts(t, s)
}
