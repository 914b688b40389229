package graph

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// The bare writes the tests issue besides MergeNode and AddEdge: each is
// the one-mutation Apply that replay uses, which logs what a Tx write of
// the same op logs. A node delete detaches.
func setAttr(s *Store, id NodeID, key, val string) error {
	return s.Apply(Mutation{Op: OpSetAttr, Node: id, Key: key, Val: val})
}

func deleteNode(s *Store, id NodeID) error { return s.Apply(Mutation{Op: OpDeleteNode, Node: id}) }

func deleteEdge(s *Store, id EdgeID) error { return s.Apply(Mutation{Op: OpDeleteEdge, Edge: id}) }

func migrateEdges(s *Store, from, to NodeID) error {
	return s.Apply(Mutation{Op: OpMigrateEdges, From: from, To: to})
}

func mustEdge(t *testing.T, s *Store, from NodeID, typ string, to NodeID) EdgeID {
	t.Helper()
	id, _, err := s.AddEdge(from, typ, to, nil)
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	return id
}

// latest is every test read of the store's latest state: it opens a Snap,
// fails the test if the store holds any node or edge version — so the
// Snap's reads take the no-history path and are exactly the plain slab
// reads, not visibility-filtered ones — returns what read returns, and
// releases the Snap before any later write.
func latest[T any](t testing.TB, s *Store, read func(*Snap) T) T {
	t.Helper()
	if st := s.MVCCStats(); st.NodeVersions+st.EdgeVersions+st.NodeStamps+st.EdgeStamps > 0 {
		t.Fatalf("latest read with version history in the store: %+v", st)
	}
	sn := s.Snapshot()
	defer sn.Release()
	return read(sn)
}

func TestMergeNodeExactTextSemantics(t *testing.T) {
	s := New()
	a, created := s.MergeNode("Malware", "WannaCry", map[string]string{"src": "r1"})
	if !created {
		t.Fatal("first insert should create")
	}
	b, created := s.MergeNode("Malware", "WannaCry", map[string]string{"src": "r2", "extra": "x"})
	if created {
		t.Fatal("exact duplicate must merge, not create")
	}
	if a != b {
		t.Fatalf("merge returned different IDs: %d vs %d", a, b)
	}
	// Different case is a different description text: no merge (the paper
	// defers fuzzy merging to the fusion stage).
	c, created := s.MergeNode("Malware", "wannacry", nil)
	if !created || c == a {
		t.Error("case-different name must be a distinct node")
	}
	// Same name, different type: distinct.
	d, created := s.MergeNode("Tool", "WannaCry", nil)
	if !created || d == a {
		t.Error("same name different type must be distinct")
	}
	// First-writer-wins attribute augmentation.
	n := latest(t, s, func(sn *Snap) *Node { return sn.Node(a) })
	if n.Attrs.Get("src") != "r1" {
		t.Errorf("existing attr overwritten: %q", n.Attrs.Get("src"))
	}
	if n.Attrs.Get("extra") != "x" {
		t.Errorf("new attr not added: %+v", n.Attrs)
	}
	if s.Stats().MergeHits != 1 {
		t.Errorf("merge hits = %d, want 1", s.Stats().MergeHits)
	}
}

func TestAddEdgeDedup(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("Malware", "X", nil)
	b, _ := s.MergeNode("IP", "1.2.3.4", nil)
	e1, created, err := s.AddEdge(a, "CONNECT", b, map[string]string{"report": "r1"})
	if err != nil || !created {
		t.Fatalf("first edge: %v created=%v", err, created)
	}
	e2, created, err := s.AddEdge(a, "CONNECT", b, map[string]string{"report": "r2"})
	if err != nil || created {
		t.Fatalf("duplicate edge should dedup: %v created=%v", err, created)
	}
	if e1 != e2 {
		t.Error("dedup should return same edge ID")
	}
	// Different type or direction is a new edge.
	if _, created, _ := s.AddEdge(a, "SEND", b, nil); !created {
		t.Error("different type should create")
	}
	if _, created, _ := s.AddEdge(b, "CONNECT", a, nil); !created {
		t.Error("reverse direction should create")
	}
	if e := latest(t, s, func(sn *Snap) *Edge { return sn.Edge(e1) }); e.Attrs.Get("report") != "r1" {
		t.Error("edge attr overwritten on dedup")
	}
}

func TestAddEdgeUnknownEndpoint(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("Malware", "X", nil)
	if _, _, err := s.AddEdge(a, "USE", 999, nil); err == nil {
		t.Error("expected error for unknown target")
	}
	if _, _, err := s.AddEdge(999, "USE", a, nil); err == nil {
		t.Error("expected error for unknown source")
	}
}

func TestLookupsAndIndexes(t *testing.T) {
	s := New()
	s.MergeNode("Malware", "A", map[string]string{"family": "ransom"})
	s.MergeNode("Malware", "B", map[string]string{"family": "ransom"})
	s.MergeNode("Tool", "A", nil)

	if n := latest(t, s, func(sn *Snap) *Node { return sn.FindNode("Malware", "A") }); n == nil || n.Type != "Malware" {
		t.Error("FindNode failed")
	}
	if n := latest(t, s, func(sn *Snap) *Node { return sn.FindNode("Malware", "missing") }); n != nil {
		t.Error("FindNode should return nil for missing")
	}
	if got := len(latest(t, s, func(sn *Snap) []*Node { return sn.Nodes(nil, sn.NodeIDsByName("A")) })); got != 2 {
		t.Errorf("nodes named A = %d, want 2", got)
	}
	if got := len(latest(t, s, func(sn *Snap) []*Node { return sn.NodesByType("Malware") })); got != 2 {
		t.Errorf("NodesByType(Malware) = %d, want 2", got)
	}
	// An unindexed attribute has no access path; IndexAttr back-fills one.
	unindexed := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("family", "ransom") })
	s.IndexAttr("family")
	idx := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("family", "ransom") })
	if unindexed != nil || len(idx) != 2 {
		t.Errorf("attr lookup: unindexed=%v idx=%d, want nil/2", unindexed, len(idx))
	}
}

func TestIndexAttrTracksUpdates(t *testing.T) {
	s := New()
	s.IndexAttr("k")
	id, _ := s.MergeNode("Tool", "t", map[string]string{"k": "v1"})
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("k", "v1") }); len(got) != 1 {
		t.Fatal("index missed insert")
	}
	if err := setAttr(s, id, "k", "v2"); err != nil {
		t.Fatal(err)
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("k", "v1") }); len(got) != 0 {
		t.Error("stale index entry after SetAttr")
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("k", "v2") }); len(got) != 1 {
		t.Error("index missed update")
	}
	deleteNode(s, id)
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("k", "v2") }); len(got) != 0 {
		t.Error("stale index entry after delete")
	}
}

func TestNeighborsAndEdgesDirections(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("Malware", "A", nil)
	b, _ := s.MergeNode("IP", "1.1.1.1", nil)
	c, _ := s.MergeNode("Domain", "x.com", nil)
	mustEdge(t, s, a, "CONNECT", b)
	mustEdge(t, s, c, "RESOLVE_TO", b)

	if nb := latest(t, s, func(sn *Snap) []*Node { return sn.Neighbors(a, Out) }); len(nb) != 1 || nb[0].ID != b {
		t.Errorf("out neighbors of a: %+v", nb)
	}
	if nb := latest(t, s, func(sn *Snap) []*Node { return sn.Neighbors(b, In) }); len(nb) != 2 {
		t.Errorf("in neighbors of b: %+v", nb)
	}
	if nb := latest(t, s, func(sn *Snap) []*Node { return sn.Neighbors(b, Out) }); len(nb) != 0 {
		t.Errorf("out neighbors of b: %+v", nb)
	}
	if nb := latest(t, s, func(sn *Snap) []*Node { return sn.Neighbors(b, Both) }); len(nb) != 2 {
		t.Errorf("both neighbors of b: %+v", nb)
	}
	if es := latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(b, Both) }); len(es) != 2 {
		t.Errorf("edges of b: %+v", es)
	}
}

func TestDeleteNodeRemovesIncidentEdges(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("Malware", "A", nil)
	b, _ := s.MergeNode("IP", "1.1.1.1", nil)
	mustEdge(t, s, a, "CONNECT", b)
	if err := deleteNode(s, b); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Edges != 0 || got.Nodes != 1 {
		t.Errorf("after delete: %+v", got)
	}
	if es := latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(a, Out) }); len(es) != 0 {
		t.Errorf("dangling edge: %+v", es)
	}
	// Re-inserting the deleted node gets a fresh ID (no reuse).
	b2, created := s.MergeNode("IP", "1.1.1.1", nil)
	if !created || b2 == b {
		t.Error("deleted node key should be insertable with a new ID")
	}
}

func TestMigrateEdgesPreservesTopology(t *testing.T) {
	s := New()
	dup, _ := s.MergeNode("Malware", "WANACRY", nil)
	canon, _ := s.MergeNode("Malware", "WannaCry", nil)
	ip, _ := s.MergeNode("IP", "9.9.9.9", nil)
	rep, _ := s.MergeNode("MalwareReport", "r77", nil)
	mustEdge(t, s, dup, "CONNECT", ip)
	mustEdge(t, s, rep, "DESCRIBES", dup)
	// An edge the canonical node already has: migration must dedup.
	mustEdge(t, s, canon, "CONNECT", ip)

	if err := migrateEdges(s, dup, canon); err != nil {
		t.Fatal(err)
	}
	if es := latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(dup, Both) }); len(es) != 0 {
		t.Errorf("dup still has edges: %+v", es)
	}
	outs := latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(canon, Out) })
	if len(outs) != 1 || outs[0].To != ip {
		t.Errorf("canon out edges wrong: %+v", outs)
	}
	ins := latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(canon, In) })
	if len(ins) != 1 || ins[0].From != rep {
		t.Errorf("canon in edges wrong: %+v", ins)
	}
}

func TestMigrateEdgesDropsSelfLoops(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("Malware", "a", nil)
	b, _ := s.MergeNode("Malware", "b", nil)
	mustEdge(t, s, a, "RELATED_TO", b)
	if err := migrateEdges(s, a, b); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Edges != 0 {
		t.Errorf("self loop survived migration: %+v", st)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("Malware", "WannaCry", map[string]string{"seen": "2017"})
	b, _ := s.MergeNode("IP", "1.2.3.4", nil)
	mustEdge(t, s, a, "CONNECT", b)
	deleteNode(s, b) // exercise ID non-reuse across save/load
	c, _ := s.MergeNode("Domain", "kill.switch.com", nil)
	mustEdge(t, s, a, "CONNECT", c)

	var buf bytes.Buffer
	if err := s.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st1, st2 := s.Stats(), s2.Stats(); st1.Nodes != st2.Nodes || st1.Edges != st2.Edges {
		t.Errorf("stats mismatch: %+v vs %+v", st1, st2)
	}
	if n := latest(t, s2, func(sn *Snap) *Node { return sn.FindNode("Malware", "WannaCry") }); n == nil || n.Attrs.Get("seen") != "2017" {
		t.Error("node attrs lost in round trip")
	}
	// New IDs continue after the loaded maximum.
	d, _ := s2.MergeNode("Tool", "fresh", nil)
	if d <= c {
		t.Errorf("ID counter not restored: new %d <= old %d", d, c)
	}
	// Merge semantics survive load.
	if _, created := s2.MergeNode("Malware", "WannaCry", nil); created {
		t.Error("merge index not rebuilt on load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for name, in := range map[string][]byte{
		"foreign magic":   append([]byte("skggrf0\n"), binStream(t, 0, 0, nil, nil)[len(binaryMagic):]...),
		"magic alone":     []byte(binaryMagic),
		"not a graph":     []byte("not a graph stream"),
		"JSON Save lines": []byte(`{"magic":"securitykg-graph","version":1,"next_node":0,"next_edge":0,"nodes":0,"edges":0}` + "\n"),
	} {
		if _, err := Load(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

func TestExpandFromRespectsLimits(t *testing.T) {
	s := New()
	hub, _ := s.MergeNode("Malware", "hub", nil)
	for i := 0; i < 50; i++ {
		n, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		mustEdge(t, s, hub, "CONNECT", n)
	}
	sg := s.ExpandFrom([]NodeID{hub}, 1, 10, 100)
	if len(sg.Nodes) != 11 { // hub + 10 neighbors
		t.Errorf("maxNeighbors not honored: %d nodes", len(sg.Nodes))
	}
	sg = s.ExpandFrom([]NodeID{hub}, 1, 1000, 20)
	if len(sg.Nodes) != 20 {
		t.Errorf("maxNodes not honored: %d nodes", len(sg.Nodes))
	}
	// Every edge in the subgraph connects included nodes.
	inc := map[NodeID]bool{}
	for _, n := range sg.Nodes {
		inc[n.ID] = true
	}
	for _, e := range sg.Edges {
		if !inc[e.From] || !inc[e.To] {
			t.Errorf("edge %+v leaves the subgraph", e)
		}
	}
}

func TestExpandFromDepth(t *testing.T) {
	s := New()
	// Chain a-b-c-d.
	ids := make([]NodeID, 4)
	for i := range ids {
		ids[i], _ = s.MergeNode("Malware", fmt.Sprintf("n%d", i), nil)
		if i > 0 {
			mustEdge(t, s, ids[i-1], "RELATED_TO", ids[i])
		}
	}
	sg := s.ExpandFrom([]NodeID{ids[0]}, 2, 10, 100)
	if len(sg.Nodes) != 3 {
		t.Errorf("depth 2 from chain head should reach 3 nodes, got %d", len(sg.Nodes))
	}
}

func TestRandomSubgraphDeterministicPerSeed(t *testing.T) {
	s := New()
	var prev NodeID
	for i := 0; i < 30; i++ {
		id, _ := s.MergeNode("Malware", fmt.Sprintf("m%d", i), nil)
		if i > 0 {
			mustEdge(t, s, prev, "RELATED_TO", id)
		}
		prev = id
	}
	a := latest(t, s, func(sn *Snap) *Subgraph { return sn.RandomSubgraph(42, 10) })
	b := latest(t, s, func(sn *Snap) *Subgraph { return sn.RandomSubgraph(42, 10) })
	if len(a.Nodes) != 10 || len(b.Nodes) != 10 {
		t.Fatalf("sizes: %d, %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i].ID != b.Nodes[i].ID {
			t.Fatal("same seed must give same subgraph")
		}
	}
}

func TestRandomSubgraphEmptyStore(t *testing.T) {
	s := New()
	if sg := latest(t, s, func(sn *Snap) *Subgraph { return sn.RandomSubgraph(1, 5) }); len(sg.Nodes) != 0 {
		t.Errorf("empty store returned nodes: %+v", sg)
	}
}

func TestCollapseFrom(t *testing.T) {
	s := New()
	// anchor - x - leaf1, leaf2 ; collapsing x hides the leaves only.
	anchor, _ := s.MergeNode("Malware", "anchor", nil)
	x, _ := s.MergeNode("IP", "x", nil)
	l1, _ := s.MergeNode("Domain", "l1", nil)
	l2, _ := s.MergeNode("Domain", "l2", nil)
	mustEdge(t, s, anchor, "CONNECT", x)
	mustEdge(t, s, x, "RESOLVE_TO", l1)
	mustEdge(t, s, x, "RESOLVE_TO", l2)
	view := []NodeID{anchor, x, l1, l2}
	hidden := latest(t, s, func(sn *Snap) []NodeID { return sn.CollapseFrom(x, view, []NodeID{anchor}) })
	if len(hidden) != 2 {
		t.Fatalf("expected 2 hidden nodes, got %v", hidden)
	}
	for _, h := range hidden {
		if h == anchor || h == x {
			t.Errorf("collapse hid anchor or target: %v", hidden)
		}
	}
}

func TestConcurrentMergeNodeSafe(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, _ := s.MergeNode("Malware", fmt.Sprintf("m%d", i%50), nil)
				tgt, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i%20), nil)
				s.AddEdge(id, "CONNECT", tgt, nil)
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Nodes != 70 {
		t.Errorf("concurrent merges produced %d nodes, want 70", st.Nodes)
	}
	if st.Edges > 50*20 {
		t.Errorf("edge dedup failed under concurrency: %d edges", st.Edges)
	}
}

// Property: MergeNode is idempotent — inserting any (type, name) twice
// yields the same ID and does not grow the node count.
func TestMergeIdempotentQuick(t *testing.T) {
	s := New()
	f := func(typ, name uint8) bool {
		ty := fmt.Sprintf("T%d", typ%5)
		nm := fmt.Sprintf("n%d", name)
		before := s.Stats().Nodes
		id1, created1 := s.MergeNode(ty, nm, nil)
		mid := s.Stats().Nodes
		id2, created2 := s.MergeNode(ty, nm, nil)
		after := s.Stats().Nodes
		if created1 && mid != before+1 {
			return false
		}
		return id1 == id2 && !created2 && after == mid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: save/load round trip preserves stats for randomly built graphs.
func TestSaveLoadQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New()
		var ids []NodeID
		for _, op := range ops {
			switch op % 3 {
			case 0, 1:
				id, _ := s.MergeNode(fmt.Sprintf("T%d", op%4), fmt.Sprintf("n%d", op%97), nil)
				ids = append(ids, id)
			case 2:
				if len(ids) >= 2 {
					s.AddEdge(ids[int(op)%len(ids)], "R", ids[int(op/2)%len(ids)], nil)
				}
			}
		}
		var buf bytes.Buffer
		if err := s.SaveBinary(&buf); err != nil {
			return false
		}
		s2, err := Load(&buf)
		if err != nil {
			return false
		}
		a, b := s.Stats(), s2.Stats()
		return a.Nodes == b.Nodes && a.Edges == b.Edges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
