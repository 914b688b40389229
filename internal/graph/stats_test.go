package graph

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"
)

func buildStatsStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	s.IndexAttr("platform")
	var mals []NodeID
	for i := 0; i < 10; i++ {
		plat := "windows"
		if i%2 == 1 {
			plat = "linux"
		}
		id, _ := s.MergeNode("Malware", fmt.Sprintf("m-%d", i), map[string]string{"platform": plat})
		mals = append(mals, id)
	}
	for i := 0; i < 30; i++ {
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		if _, _, err := s.AddEdge(mals[i%len(mals)], "CONNECT", ip, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := s.MergeNode("ThreatActor", "actor", map[string]string{"platform": "windows"})
	s.AddEdge(mals[0], "ATTRIBUTED_TO", a, nil)
	return s
}

func TestCounts(t *testing.T) {
	s := buildStatsStore(t)
	if got := s.CountNodes(); got != 41 {
		t.Errorf("CountNodes = %d, want 41", got)
	}
	st := s.Stats()
	if st.Edges != 31 {
		t.Errorf("Stats().Edges = %d, want 31", st.Edges)
	}
	if got := s.CountByType("Malware"); got != 10 {
		t.Errorf("CountByType(Malware) = %d, want 10", got)
	}
	if got := s.CountByType("Nope"); got != 0 {
		t.Errorf("CountByType(Nope) = %d, want 0", got)
	}
	if got := s.CountByName("m-3"); got != 1 {
		t.Errorf("CountByName = %d, want 1", got)
	}
	if got := s.CountByTypeName("Malware", "m-3"); got != 1 {
		t.Errorf("CountByTypeName hit = %d, want 1", got)
	}
	if got := s.CountByTypeName("IP", "m-3"); got != 0 {
		t.Errorf("CountByTypeName miss = %d, want 0", got)
	}
	if got := st.EdgesByType["CONNECT"]; got != 30 {
		t.Errorf("Stats().EdgesByType[CONNECT] = %d, want 30", got)
	}
	checkLiveCounts(t, s)
}

func TestCountByAttrIndexed(t *testing.T) {
	s := buildStatsStore(t)
	n, ok := s.CountByAttr("platform", "windows")
	if !ok || n != 6 { // 5 malware + 1 actor
		t.Errorf("CountByAttr(platform, windows) = %d, %v; want 6, true", n, ok)
	}
	if _, ok := s.CountByAttr("missing", "x"); ok {
		t.Error("CountByAttr on unindexed key should report ok=false")
	}
	n, ok = s.CountByTypeAttr("Malware", "platform", "windows")
	if !ok || n != 5 {
		t.Errorf("CountByTypeAttr = %d, %v; want 5, true", n, ok)
	}
	if !s.HasAttrIndex("platform") || s.HasAttrIndex("missing") {
		t.Error("HasAttrIndex wrong")
	}
}

func TestCompositeIndexTracksMutations(t *testing.T) {
	s := New()
	s.IndexAttr("os")
	id, _ := s.MergeNode("Malware", "x", map[string]string{"os": "win"})
	if n, _ := s.CountByTypeAttr("Malware", "os", "win"); n != 1 {
		t.Fatalf("after insert: %d", n)
	}
	if err := setAttr(s, id, "os", "mac"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.CountByTypeAttr("Malware", "os", "win"); n != 0 {
		t.Errorf("stale composite entry after SetAttr: %d", n)
	}
	if n, _ := s.CountByTypeAttr("Malware", "os", "mac"); n != 1 {
		t.Errorf("missing composite entry after SetAttr: %d", n)
	}
	if err := deleteNode(s, id); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.CountByTypeAttr("Malware", "os", "mac"); n != 0 {
		t.Errorf("stale composite entry after DeleteNode: %d", n)
	}
}

func TestNodesByTypeAttr(t *testing.T) {
	s := buildStatsStore(t)
	got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByTypeAttr("Malware", "platform", "linux") })
	if len(got) != 5 {
		t.Fatalf("NodeIDsByTypeAttr = %d nodes, want 5", len(got))
	}
	for _, id := range got {
		if n := latest(t, s, func(sn *Snap) *Node { return sn.Node(id) }); n.Type != "Malware" || n.Attrs.Get("platform") != "linux" {
			t.Errorf("wrong node: %+v", n)
		}
	}
	// An unindexed attribute has no access path.
	s2 := New()
	s2.MergeNode("Malware", "a", map[string]string{"fam": "x"})
	if got := latest(t, s2, func(sn *Snap) []NodeID { return sn.NodeIDsByTypeAttr("Malware", "fam", "x") }); got != nil {
		t.Errorf("unindexed attribute: %v, want nil", got)
	}
}

func TestEdgeTypeCountSurvivesDeleteAndLoad(t *testing.T) {
	s := buildStatsStore(t)
	// Delete one CONNECT edge.
	victim := latest(t, s, func(sn *Snap) EdgeID {
		for _, id := range sn.AllNodeIDs() {
			for _, e := range sn.Edges(id, Out) {
				if e.Type == "CONNECT" {
					return e.ID
				}
			}
		}
		return 0
	})
	if err := deleteEdge(s, victim); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().EdgesByType["CONNECT"]; got != 29 {
		t.Errorf("after delete: %d, want 29", got)
	}
	// Round-trip through SaveBinary/Load.
	var buf bytes.Buffer
	if err := s.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().EdgesByType["CONNECT"]; got != 29 {
		t.Errorf("after load: %d, want 29", got)
	}
	if got := len(latest(t, s2, (*Snap).AllNodeIDs)); got != s.CountNodes() {
		t.Errorf("AllNodeIDs after load: %d, want %d", got, s.CountNodes())
	}
}

// checkLiveCounts recounts nodes per label and edges per type from the
// slabs. The counts the store keeps live — byType, edgeTypeCount,
// nNodes, nEdges — must equal the recount, and so must what CountByType
// and Stats() read from them; probing a label the store has never seen
// reads 0 and interns nothing.
func checkLiveCounts(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	labels, types := map[string]int{}, map[string]int{}
	nodes, edges := 0, 0
	for _, rec := range s.nodes {
		if rec.n != nil {
			nodes++
			labels[rec.n.Type]++
		}
	}
	for _, rec := range s.edges {
		if rec.e == nil {
			continue
		}
		edges++
		types[rec.e.Type]++
		if s.nodes[rec.from].n == nil || s.nodes[rec.to].n == nil {
			s.mu.RUnlock()
			t.Fatalf("edge %d has a missing endpoint", rec.e.ID)
		}
	}
	if s.nNodes != nodes || s.nEdges != edges {
		t.Errorf("live totals %d nodes, %d edges; want %d, %d", s.nNodes, s.nEdges, nodes, edges)
	}
	if len(s.byType) != len(labels) || len(s.edgeTypeCount) != len(types) {
		t.Errorf("live counts hold %d labels and %d edge types, want %d and %d",
			len(s.byType), len(s.edgeTypeCount), len(labels), len(types))
	}
	for l, n := range labels {
		if got := s.byType[s.syms.lookup(l)].n; got != n {
			t.Errorf("label %q posting holds %d nodes, want %d", l, got, n)
		}
	}
	for ty, n := range types {
		if got := s.edgeTypeCount[s.syms.lookup(ty)]; got != n {
			t.Errorf("live count of edge type %q = %d, want %d", ty, got, n)
		}
	}
	syms := s.syms.count()
	s.mu.RUnlock()
	for _, l := range append(slices.Collect(maps.Keys(labels)), "never-seen-label") {
		if got := s.CountByType(l); got != labels[l] {
			t.Errorf("CountByType(%q) = %d, want %d", l, got, labels[l])
		}
	}
	if got := s.Stats().EdgesByType; !maps.Equal(got, types) {
		t.Errorf("Stats().EdgesByType = %v, want %v", got, types)
	}
	if got := s.syms.count(); got != syms {
		t.Errorf("count probes interned %d symbols", got-syms)
	}
}

// The stats version moves when IndexAttr adds an access path and when the
// store's node plus edge count crosses a power of two, in either direction
// — through a bare write, a transaction, a rollback or a load bracket alike
// — and for nothing else: writes inside a size class never move it,
// whatever they do to one label's count, to name spread or to indexed
// values, and a loaded store starts in its own class. The four tests below
// share one case table form, grouped by what moved the version before the
// size-class rule replaced the materiality judgement.

// statsVersionCase starts from a store of start Host nodes and no edges
// (round-tripped through Load when load is set), runs act, and expects the
// stats version to have moved bumps times.
type statsVersionCase struct {
	name  string
	start int
	load  bool
	act   func(t *testing.T, s *Store, ids []NodeID)
	bumps int64
}

func runStatsVersionCases(t *testing.T, cases []statsVersionCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			ids := make([]NodeID, c.start)
			for i := range ids {
				ids[i], _ = s.MergeNode("Host", fmt.Sprintf("h%d", i), nil)
			}
			if c.load {
				var buf bytes.Buffer
				if err := s.SaveBinary(&buf); err != nil {
					t.Fatal(err)
				}
				l, err := Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				s = l
			}
			ver := s.StatsVersion()
			c.act(t, s, ids)
			if got := s.StatsVersion() - ver; got != c.bumps {
				t.Errorf("StatsVersion moved %d times, want %d", got, c.bumps)
			}
		})
	}
}

func growHosts(s *Store, prefix string, n int) {
	for i := 0; i < n; i++ {
		s.MergeNode("Host", fmt.Sprintf("%s%d", prefix, i), nil)
	}
}

func dropNodes(t *testing.T, s *Store, ids []NodeID) {
	for _, id := range ids {
		if err := deleteNode(s, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsVersionMaterialityThreshold: the threshold is the size class.
func TestStatsVersionMaterialityThreshold(t *testing.T) {
	runStatsVersionCases(t, []statsVersionCase{
		{"growth inside a class", 64, false, func(t *testing.T, s *Store, ids []NodeID) {
			// 64 -> 127 entities: a new label from nothing to 40, edges
			// and attribute writes.
			for i := 0; i < 40; i++ {
				s.MergeNode("Rare", fmt.Sprintf("r%d", i), nil)
			}
			for i := 0; i < 23; i++ {
				if _, _, err := s.AddEdge(ids[i], "E", ids[i+1], nil); err != nil {
					t.Fatal(err)
				}
				if err := setAttr(s, ids[i], "k", fmt.Sprint(i)); err != nil {
					t.Fatal(err)
				}
			}
		}, 0},
		{"growth to the power", 64, false, func(t *testing.T, s *Store, _ []NodeID) { growHosts(s, "g", 64) }, 1},
		{"growth past two powers", 64, false, func(t *testing.T, s *Store, _ []NodeID) { growHosts(s, "g", 192) }, 2},
		{"an edge completes the power", 127, false, func(t *testing.T, s *Store, ids []NodeID) {
			if _, _, err := s.AddEdge(ids[0], "E", ids[1], nil); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"shrink to the power", 65, false, func(t *testing.T, s *Store, ids []NodeID) { dropNodes(t, s, ids[:1]) }, 0},
		{"shrink below the power", 65, false, func(t *testing.T, s *Store, ids []NodeID) { dropNodes(t, s, ids[:2]) }, 1},
		{"rollback inside a class", 64, false, func(t *testing.T, s *Store, ids []NodeID) {
			tx := s.BeginTx()
			for i := 0; i < 40; i++ {
				tx.MergeNode("Host", fmt.Sprintf("t%d", i), nil)
			}
			tx.Rollback()
		}, 0},
		{"rollback across the power", 128, false, func(t *testing.T, s *Store, ids []NodeID) {
			tx := s.BeginTx()
			if _, err := tx.DeleteNode(ids[0], true); err != nil {
				t.Fatal(err)
			}
			tx.Rollback()
		}, 2},
		{"load bracket does not defer", 64, false, func(t *testing.T, s *Store, _ []NodeID) {
			s.BeginBulk()
			growHosts(s, "b", 64)
			s.EndBulk()
		}, 1},
	})
}

// TestStatsVersionTracksIndexedAttrSpread: IndexAttr adds an access path
// and moves the version once; the spread of an indexed key's values inside
// a size class does not move it.
func TestStatsVersionTracksIndexedAttrSpread(t *testing.T) {
	runStatsVersionCases(t, []statsVersionCase{
		{"IndexAttr", 64, false, func(t *testing.T, s *Store, _ []NodeID) {
			s.IndexAttr("k")
			s.IndexAttr("k") // already indexed: no new access path
		}, 1},
		{"indexed values spread inside a class", 100, false, func(t *testing.T, s *Store, ids []NodeID) {
			s.IndexAttr("family")
			for _, id := range ids {
				if err := setAttr(s, id, "family", "unknown"); err != nil {
					t.Fatal(err)
				}
			}
			for i, id := range ids[:60] {
				if err := setAttr(s, id, "family", fmt.Sprintf("fam-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}, 1},
	})
}

// TestStatsVersionTracksDistinctNameDrift: churn that moves one label's
// count or the spread of names inside a size class does not move the
// version; the same churn carried past a power of two does.
func TestStatsVersionTracksDistinctNameDrift(t *testing.T) {
	// shared re-merges n of the dropped nodes under distinct labels and one
	// shared name, so distinct names fall while the total stays put.
	shared := func(s *Store, n int) {
		for i := 0; i < n; i++ {
			s.MergeNode(fmt.Sprintf("T%d", i), "shared", nil)
		}
	}
	runStatsVersionCases(t, []statsVersionCase{
		{"churn inside a class", 100, false, func(t *testing.T, s *Store, ids []NodeID) {
			dropNodes(t, s, ids[:30])
			growHosts(s, "c", 30)
		}, 0},
		{"names collapse inside a class", 100, false, func(t *testing.T, s *Store, ids []NodeID) {
			dropNodes(t, s, ids[:30])
			shared(s, 30)
		}, 0},
		{"names collapse past the power", 100, false, func(t *testing.T, s *Store, ids []NodeID) {
			dropNodes(t, s, ids[:30])
			shared(s, 58)
		}, 1},
	})
}

// TestStatsVersionRebasedOnLoad: a loaded store starts in its own size
// class, so writes after Load move the version only when they cross it.
func TestStatsVersionRebasedOnLoad(t *testing.T) {
	runStatsVersionCases(t, []statsVersionCase{
		{"write after Load", 100, true, func(t *testing.T, s *Store, _ []NodeID) { growHosts(s, "l", 27) }, 0},
		{"crossing after Load", 127, true, func(t *testing.T, s *Store, _ []NodeID) { growHosts(s, "l", 1) }, 1},
	})
}

func TestNodeIDAccessPaths(t *testing.T) {
	s := buildStatsStore(t)
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByType("Malware") }); len(got) != 10 {
		t.Errorf("NodeIDsByType: %d, want 10", len(got))
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByName("actor") }); len(got) != 1 {
		t.Errorf("NodeIDsByName: %d, want 1", len(got))
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("platform", "linux") }); len(got) != 5 {
		t.Errorf("NodeIDsByAttr: %d, want 5", len(got))
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("unindexed", "x") }); got != nil {
		t.Errorf("NodeIDsByAttr unindexed should be nil, got %v", got)
	}
	if got := latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByTypeAttr("Malware", "platform", "linux") }); len(got) != 5 {
		t.Errorf("NodeIDsByTypeAttr: %d, want 5", len(got))
	}
	ids := latest(t, s, (*Snap).AllNodeIDs)
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("AllNodeIDs not sorted")
		}
	}
}
