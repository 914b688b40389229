package graph

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// SaveBinary/Load failure-mode coverage: recovery builds on this format,
// so damaged inputs must fail loudly instead of loading half a graph.

// persistFixture builds a small graph and returns its Save bytes.
func persistFixture(t *testing.T) (*Store, []byte) {
	t.Helper()
	s := New()
	a, _ := s.MergeNode("Malware", "wannacry", map[string]string{"platform": "windows"})
	b, _ := s.MergeNode("IP", "10.1.2.3", nil)
	c, _ := s.MergeNode("Tool", "mimikatz", nil)
	s.AddEdge(a, "CONNECT", b, map[string]string{"proto": "tcp"})
	s.AddEdge(a, "USE", c, nil)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return s, buf.Bytes()
}

// streamRec is one record of a hand-written binary stream: a node (id,
// typ, name) or an edge (id, typ, from, to), without attributes.
type streamRec struct {
	id       uint64
	typ      string
	name     string
	from, to uint64
}

// binStream writes a binary graph stream field by field, with whatever
// allocators and records it is given — the stream a damaged or hostile
// writer could produce — and a valid CRC.
func binStream(t *testing.T, nextNode, nextEdge uint64, nodes, edges []streamRec) []byte {
	t.Helper()
	vocab := map[string]uint64{}
	var strs []string
	for _, r := range append(nodes[:len(nodes):len(nodes)], edges...) {
		if _, ok := vocab[r.typ]; !ok && r.typ != "" {
			vocab[r.typ] = 0
			strs = append(strs, r.typ)
		}
	}
	sort.Strings(strs)
	var buf bytes.Buffer
	b := newBinWriter(&buf)
	b.bytes([]byte(binaryMagic))
	b.uvarint(binaryVersion)
	b.uvarint(uint64(len(strs)))
	for i, v := range strs {
		vocab[v] = uint64(i + 1)
		b.str(v)
	}
	b.uvarint(nextNode)
	b.uvarint(nextEdge)
	b.uvarint(uint64(len(nodes)))
	for _, n := range nodes {
		b.uvarint(n.id)
		b.uvarint(vocab[n.typ])
		b.str(n.name)
		b.uvarint(0)
	}
	b.uvarint(uint64(len(edges)))
	for _, e := range edges {
		b.uvarint(e.id)
		b.uvarint(vocab[e.typ])
		b.uvarint(e.from)
		b.uvarint(e.to)
		b.uvarint(0)
	}
	if err := b.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadTruncatedStream(t *testing.T) {
	s, _ := persistFixture(t)
	var buf bytes.Buffer
	if err := s.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Every truncation that cuts into or before a record must error —
	// the header's node/edge counts promise more records than arrive.
	for _, cut := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 2} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("Load accepted a stream truncated at %d/%d bytes", cut, len(data))
		}
	}
}

func TestLoadMidRecordCorruption(t *testing.T) {
	// A node record whose name runs past the end of the stream.
	var buf bytes.Buffer
	b := newBinWriter(&buf)
	b.bytes([]byte(binaryMagic))
	b.uvarint(binaryVersion)
	b.uvarint(1)
	b.str("A")
	b.uvarint(2) // next node
	b.uvarint(0) // next edge
	b.uvarint(2) // nodes
	b.uvarint(1) // id
	b.uvarint(1) // type
	b.uvarint(1000)
	if err := b.finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("Load accepted mid-record corruption")
	}
	// A wrong magic and a wrong version must also fail.
	good := binStream(t, 1, 0, []streamRec{{id: 1, typ: "A", name: "x"}}, nil)
	if _, err := Load(bytes.NewReader(append([]byte("skggrf0\n"), good[len(binaryMagic):]...))); err == nil {
		t.Error("Load accepted a foreign magic")
	}
	buf.Reset()
	b = newBinWriter(&buf)
	b.bytes([]byte(binaryMagic))
	b.uvarint(9)
	if err := b.finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "unsupported version 9") {
		t.Errorf("unknown version: got %v", err)
	}
}

func TestLoadDuplicateAndDanglingRecords(t *testing.T) {
	for _, tc := range []struct {
		name               string
		nextNode, nextEdge uint64
		nodes, edges       []streamRec
		want               string
	}{
		{"duplicate node id", 2, 0,
			[]streamRec{{id: 1, typ: "A", name: "x"}, {id: 1, typ: "B", name: "y"}}, nil,
			"duplicate node id"},
		// Duplicate (type, name) pairs under different IDs break the merge index.
		{"duplicate (type,name)", 2, 0,
			[]streamRec{{id: 1, typ: "A", name: "x"}, {id: 2, typ: "A", name: "x"}}, nil,
			"duplicate node (A"},
		{"dangling edge", 1, 1,
			[]streamRec{{id: 1, typ: "A", name: "x"}}, []streamRec{{id: 1, typ: "E", from: 1, to: 99}},
			"unknown node"},
		{"duplicate edge id", 2, 1,
			[]streamRec{{id: 1, typ: "A", name: "x"}, {id: 2, typ: "A", name: "y"}},
			[]streamRec{{id: 1, typ: "E", from: 1, to: 2}, {id: 1, typ: "F", from: 2, to: 1}},
			"duplicate edge id"},
	} {
		in := binStream(t, tc.nextNode, tc.nextEdge, tc.nodes, tc.edges)
		if _, err := Load(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v", tc.name, err)
		}
	}
}

// TestSubgraphRoundTrip: subgraph extraction commutes with Save/Load —
// the same expansion over a persisted-and-reloaded store returns the
// same view the original store produced.
func TestSubgraphRoundTrip(t *testing.T) {
	s, data := persistFixture(t)
	var bin bytes.Buffer
	if err := s.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&bin)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	seed := latest(t, s, func(sn *Snap) *Node { return sn.FindNode("Malware", "wannacry") })
	if seed == nil {
		t.Fatal("fixture node missing")
	}
	want := s.ExpandFrom([]NodeID{seed.ID}, 2, 10, 100)
	got := loaded.ExpandFrom([]NodeID{seed.ID}, 2, 10, 100)
	if !reflect.DeepEqual(want.NodeIDs(), got.NodeIDs()) {
		t.Fatalf("subgraph nodes drifted across Save/Load: %v vs %v", want.NodeIDs(), got.NodeIDs())
	}
	if len(want.Edges) != len(got.Edges) {
		t.Fatalf("subgraph edges drifted: %d vs %d", len(want.Edges), len(got.Edges))
	}
	for i := range want.Edges {
		if !reflect.DeepEqual(want.Edges[i], got.Edges[i]) {
			t.Fatalf("edge %d drifted: %+v vs %+v", i, want.Edges[i], got.Edges[i])
		}
	}
	// And the reloaded store re-saves to identical bytes.
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("SaveBinary→Load→Save is not byte-stable")
	}
}

// TestMutationHook: every effective mutating op fires the hook exactly
// once; no-ops do not fire it.
func TestMutationHook(t *testing.T) {
	s := New()
	var ops []MutationOp
	s.SetMutationHook(func(m Mutation) { ops = append(ops, m.Op) })

	a, _ := s.MergeNode("A", "x", nil)
	b, _ := s.MergeNode("B", "y", nil)
	if len(ops) != 2 {
		t.Fatalf("MergeNode create did not fire the hook: %v", ops)
	}
	s.MergeNode("A", "x", nil) // pure hit: no change
	if len(ops) != 2 {
		t.Fatalf("no-op merge fired the hook (ops=%v)", ops)
	}
	s.MergeNode("A", "x", map[string]string{"k": "v"}) // augmenting hit
	eid, _, _ := s.AddEdge(a, "E", b, nil)
	s.AddEdge(a, "E", b, nil) // dedup: no change
	setAttr(s, a, "k", "v")   // same value: no change
	setAttr(s, a, "k", "w")
	deleteEdge(s, eid)
	s.AddEdge(a, "E", b, nil)
	deleteNode(s, b)
	migrateEdges(s, a, a) // no incident edges left on a: no change
	want := []MutationOp{
		OpMergeNode, OpMergeNode, OpMergeNode, OpAddEdge,
		OpSetAttr, OpDeleteEdge, OpAddEdge, OpDeleteNode,
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("hook sequence:\n got %v\nwant %v", ops, want)
	}
}

// TestHostileIDsDoNotSizeTheSlab: node and edge records live in slabs
// indexed by ID, so an ID from outside the program must never decide
// how much memory a slab takes. A stream record whose ID exceeds the
// stream's own allocator high-water mark is rejected, and a replayed
// mutation naming an ID the store never allocated fails
// as "unknown" without touching the slabs.
func TestHostileIDsDoNotSizeTheSlab(t *testing.T) {
	const huge = 1 << 40
	for kind, in := range map[string][]byte{
		"node": binStream(t, 2, 0, []streamRec{{id: 1, typ: "A", name: "x"}, {id: huge, typ: "A", name: "y"}}, nil),
		"edge": binStream(t, 2, 1, []streamRec{{id: 1, typ: "A", name: "x"}, {id: 2, typ: "A", name: "y"}},
			[]streamRec{{id: huge, typ: "E", from: 1, to: 2}}),
	} {
		if _, err := Load(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), "invalid "+kind+" id") {
			t.Errorf("%s id beyond the allocator: got %v", kind, err)
		}
	}

	s, _ := persistFixture(t)
	nodes, edges := len(s.nodes), len(s.edges)
	for _, m := range []Mutation{
		{Op: OpSetAttr, Node: huge, Key: "k", Val: "v"},
		{Op: OpDeleteNode, Node: huge},
		{Op: OpDeleteEdge, Edge: huge},
		{Op: OpAddEdge, From: huge, Type: "E", To: 1},
		{Op: OpAddEdge, From: 1, Type: "E", To: huge},
		{Op: OpMigrateEdges, From: huge, To: 1},
		{Op: OpMigrateEdges, From: 1, To: -huge},
	} {
		if err := s.Apply(m); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("Apply(%s) of a never-allocated id: got %v", m.Op, err)
		}
		if _, err := s.ApplyBatch([]Mutation{m}); err == nil {
			t.Errorf("ApplyBatch(%s) of a never-allocated id succeeded", m.Op)
		}
	}
	if latest(t, s, func(sn *Snap) bool {
		return sn.Node(huge) != nil || sn.Edge(-1) != nil || len(sn.Nodes(nil, []NodeID{huge, -3, 0})) != 3
	}) {
		t.Error("reads of never-allocated ids must see nothing")
	}
	if len(s.nodes) != nodes || len(s.edges) != edges {
		t.Errorf("slabs moved from %d/%d to %d/%d slots", nodes, edges, len(s.nodes), len(s.edges))
	}
}

// TestLyingHeaderDoesNotSizeTheSlab: a record's ID is checked against
// its own stream's allocators, so a stream that lies in both — a header
// of 1<<40 and one record up there — would pass that check and grow a
// slab by terabytes. The header is refused before any record is read,
// for either allocator, and so is one past the int64 range (a negative
// ID once cast); and an honest header far above its highest record (a
// store that deleted its newest IDs) sizes the slab and the adjacency by
// the records, not by itself.
func TestLyingHeaderDoesNotSizeTheSlab(t *testing.T) {
	const huge = 1 << 40
	for _, next := range []struct {
		name       string
		node, edge uint64
		want       string
	}{
		{"next_node", huge, 0, "implausible id allocators"},
		{"next_edge", 1, huge, "implausible id allocators"},
		{"negative", 1 << 63, 0, "overflows"},
	} {
		// One node, at the ID the header vouches for.
		in := binStream(t, next.node, next.edge, []streamRec{{id: next.node, typ: "A", name: "x"}}, nil)
		if _, err := Load(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), next.want) {
			t.Errorf("header lying in %s: got %v", next.name, err)
		}
	}

	s, err := Load(bytes.NewReader(binStream(t, 1000000, 1000000,
		[]streamRec{{id: 1, typ: "A", name: "x"}, {id: 2, typ: "A", name: "y"}},
		[]streamRec{{id: 1, typ: "E", from: 1, to: 2}})))
	if err != nil {
		t.Fatalf("honest header far above its records: %v", err)
	}
	if len(s.nodes) != 3 || len(s.edges) != 2 || len(s.adj.out.off) > 4 {
		t.Errorf("slabs %d/%d, adjacency offsets %d: sized by the header, not the records", len(s.nodes), len(s.edges), len(s.adj.out.off))
	}
	if id, created := s.MergeNode("A", "z", nil); !created || id != 1000001 {
		t.Errorf("next node after load = %d, want the header's allocator + 1", id)
	}
}

// TestRollbackGivesSlotsBack: a rolled-back transaction hands its IDs
// back to the allocators, so the slab slots and posting tails it
// extended go too — cleared, not just cut, because the next transaction
// allocates the same IDs.
func TestRollbackGivesSlotsBack(t *testing.T) {
	s, want := persistFixture(t)
	s.IndexAttr("platform")
	nodes, edges := len(s.nodes), len(s.edges)
	malware := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByType("Malware") })

	tx := s.BeginTx()
	hub := tx.MergeNode("Malware", "hub", map[string]string{"platform": "windows"}).Node.ID
	for i := 0; i < 1000; i++ {
		id := tx.MergeNode("Malware", fmt.Sprint("ghost-", i), map[string]string{"platform": "windows"}).Node.ID
		if _, err := tx.AddEdge(hub, "DROP", id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(s.nodes) != nodes || len(s.edges) != edges {
		t.Fatalf("slabs hold %d/%d slots after rollback, want %d/%d", len(s.nodes), len(s.edges), nodes, edges)
	}
	for _, rec := range s.nodes[:cap(s.nodes)][nodes:] {
		if rec.n != nil {
			t.Fatal("a cut node slot still holds the rolled-back record")
		}
	}
	for _, rec := range s.edges[:cap(s.edges)][edges:] {
		if rec.e != nil {
			t.Fatal("a cut edge slot still holds the rolled-back record")
		}
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByType("Malware") }); !reflect.DeepEqual(got, malware) {
		t.Errorf("label posting after rollback: %v, want %v", got, malware)
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByTypeAttr("Malware", "platform", "windows") }); !reflect.DeepEqual(got, malware) {
		t.Errorf("attr posting after rollback: %v, want %v", got, malware)
	}
	if n, ok := s.CountByAttr("platform", "windows"); !ok || n != 1 {
		t.Errorf("CountByAttr = %d, %v after rollback, want 1", n, ok)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Save stream changed across a rolled-back transaction (err %v)", err)
	}
	// The same IDs, allocated again, file where the ghosts were.
	id, created := s.MergeNode("Malware", "real", nil)
	got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByType("Malware") })
	if !created || int(id) != nodes || !reflect.DeepEqual(got, append(malware, id)) {
		t.Errorf("first node after rollback: id %d created=%v postings %v", id, created, got)
	}
}
