package graph

import (
	"bytes"
	"fmt"
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
	if got := s.CountEdges(); got != 31 {
		t.Errorf("CountEdges = %d, want 31", got)
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
	if got := s.CountEdgesByType("CONNECT"); got != 30 {
		t.Errorf("CountEdgesByType(CONNECT) = %d, want 30", got)
	}
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
	if err := s.SetAttr(id, "os", "mac"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.CountByTypeAttr("Malware", "os", "win"); n != 0 {
		t.Errorf("stale composite entry after SetAttr: %d", n)
	}
	if n, _ := s.CountByTypeAttr("Malware", "os", "mac"); n != 1 {
		t.Errorf("missing composite entry after SetAttr: %d", n)
	}
	if err := s.DeleteNode(id); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.CountByTypeAttr("Malware", "os", "mac"); n != 0 {
		t.Errorf("stale composite entry after DeleteNode: %d", n)
	}
}

func TestNodesByTypeAttr(t *testing.T) {
	s := buildStatsStore(t)
	got := s.NodesByTypeAttr("Malware", "platform", "linux")
	if len(got) != 5 {
		t.Fatalf("NodesByTypeAttr = %d nodes, want 5", len(got))
	}
	for _, n := range got {
		if n.Type != "Malware" || n.Attrs.Get("platform") != "linux" {
			t.Errorf("wrong node: %+v", n)
		}
	}
	// Unindexed path scans.
	s2 := New()
	s2.MergeNode("Malware", "a", map[string]string{"fam": "x"})
	s2.MergeNode("Malware", "b", map[string]string{"fam": "y"})
	if got := s2.NodesByTypeAttr("Malware", "fam", "x"); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("scan path: %+v", got)
	}
}

func TestEdgeTypeCountSurvivesDeleteAndLoad(t *testing.T) {
	s := buildStatsStore(t)
	// Delete one CONNECT edge.
	var victim EdgeID
	s.ForEachEdge(func(e *Edge) bool {
		if e.Type == "CONNECT" {
			victim = e.ID
			return false
		}
		return true
	})
	if err := s.DeleteEdge(victim); err != nil {
		t.Fatal(err)
	}
	if got := s.CountEdgesByType("CONNECT"); got != 29 {
		t.Errorf("after delete: %d, want 29", got)
	}
	// Round-trip through Save/Load.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.CountEdgesByType("CONNECT"); got != 29 {
		t.Errorf("after load: %d, want 29", got)
	}
	if got := len(s2.AllNodeIDs()); got != s.CountNodes() {
		t.Errorf("AllNodeIDs after load: %d, want %d", got, s.CountNodes())
	}
}

func TestAvgDegree(t *testing.T) {
	s := buildStatsStore(t)
	syms := s.syms.count()
	for _, c := range []struct {
		label, edgeType string
		dir             Direction
		walks, sources  float64
	}{
		// 30 CONNECT edges spread i%10, so each of the 10 malware has
		// exactly 3 outgoing CONNECTs (malware 0's one edge of a different
		// type must not count).
		{"Malware", "CONNECT", Out, 30, 10},
		{"Malware", "", Out, 31, 10},
		// IPs have no outgoing CONNECTs, one incoming each.
		{"IP", "CONNECT", Out, 0, 30},
		{"IP", "CONNECT", In, 30, 30},
		{"IP", "CONNECT", Both, 30, 30},
		// "" label covers every node; "" type counts all edges; Both sums.
		{"", "", Both, 62, 41},
		{"", "CONNECT", In, 30, 41},
		// Never-seen labels and types read 0 and intern nothing.
		{"Nope", "CONNECT", Out, 0, 1},
		{"Malware", "NOPE", Both, 0, 1},
		{"", "NOPE", Out, 0, 1},
	} {
		if got, want := s.AvgDegree(c.label, c.edgeType, c.dir), c.walks/c.sources; got != want {
			t.Errorf("AvgDegree(%q, %q, %d) = %v, want %v/%v", c.label, c.edgeType, c.dir, got, c.walks, c.sources)
		}
	}
	if got := s.syms.count(); got != syms {
		t.Errorf("AvgDegree interned %d symbols", got-syms)
	}
	if got := New().AvgDegree("", "", Both); got != 0 {
		t.Errorf("empty store AvgDegree = %v, want 0", got)
	}
	checkLiveCounts(t, s)
}

// TestAvgDegreeFollowsEveryWrite: the fan-out is live, not a per-version
// copy — writes inside one size class show at once.
func TestAvgDegreeFollowsEveryWrite(t *testing.T) {
	s := buildStatsStore(t)
	ver := s.StatsVersion()
	m0 := s.FindNode("Malware", "m-0")
	ip0 := s.FindNode("IP", "10.0.0.0")
	s.AddEdge(m0.ID, "CONNECT", ip0.ID, map[string]string{"x": "1"}) // dup edge: attr merge only
	if got := s.AvgDegree("Malware", "CONNECT", Out); got != 3 {
		t.Errorf("attr merge on an existing edge moved the fan-out to %v", got)
	}
	id, _ := s.MergeNode("Malware", "new", nil)
	s.AddEdge(id, "CONNECT", ip0.ID, nil)
	if s.StatsVersion() != ver {
		t.Fatal("one node and one edge bumped the stats version")
	}
	if got, want := s.AvgDegree("Malware", "CONNECT", Out), 31.0/11; got != want {
		t.Errorf("AvgDegree after one more malware and edge = %v, want %v", got, want)
	}
}

// checkLiveCounts recounts every edge endpoint from the slabs and
// requires the store's live counts — the maps, and what AvgDegree reads
// off them for every (label, type, side) present — to be exactly that.
func checkLiveCounts(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	type end struct{ label, typ Sym }
	endDeg, labelDeg := map[end][2]int{}, map[Sym][2]int{}
	for _, rec := range s.edges {
		if rec.e == nil {
			continue
		}
		from, to := s.nodes[rec.from], s.nodes[rec.to]
		if from.n == nil || to.n == nil {
			t.Fatalf("edge %d has a missing endpoint", rec.e.ID)
		}
		for side, label := range []Sym{Out: from.typ, In: to.typ} {
			c := endDeg[end{label, rec.typ}]
			c[side]++
			endDeg[end{label, rec.typ}] = c
			c = labelDeg[label]
			c[side]++
			labelDeg[label] = c
		}
	}
	if len(s.endDeg) != len(endDeg) || len(s.labelDeg) != len(labelDeg) {
		t.Errorf("live counts hold %d (label, type) and %d label keys, want %d and %d",
			len(s.endDeg), len(s.labelDeg), len(endDeg), len(labelDeg))
	}
	for k, want := range endDeg {
		if got := s.endDeg[endKeyOf(k.label, k.typ)]; got == nil || *got != want {
			t.Errorf("live endpoint count of (%q, %q) = %v, want %v", s.syms.str(k.label), s.syms.str(k.typ), got, want)
		}
	}
	for l, want := range labelDeg {
		if got := s.labelDeg[l]; got == nil || *got != want {
			t.Errorf("live endpoint count of label %q = %v, want %v", s.syms.str(l), got, want)
		}
	}
	type probe struct {
		label, typ string
		walks      [2]int
		sources    int
	}
	var probes []probe
	for k, c := range endDeg {
		if label, typ := s.syms.str(k.label), s.syms.str(k.typ); label != "" && typ != "" {
			probes = append(probes, probe{label, typ, c, s.byType[k.label].n})
		}
	}
	for l, c := range labelDeg {
		if label := s.syms.str(l); label != "" {
			probes = append(probes, probe{label, "", c, s.byType[l].n})
		}
	}
	for ty, n := range s.edgeTypeCount {
		if typ := s.syms.str(ty); typ != "" {
			probes = append(probes, probe{"", typ, [2]int{n, n}, s.nNodes})
		}
	}
	probes = append(probes, probe{"", "", [2]int{s.nEdges, s.nEdges}, s.nNodes},
		probe{"never-seen-label", "", [2]int{}, 1}, probe{"", "never-seen-type", [2]int{}, 1})
	syms := s.syms.count()
	s.mu.RUnlock()
	for _, p := range probes {
		for dir, walks := range map[Direction]int{Out: p.walks[Out], In: p.walks[In], Both: p.walks[Out] + p.walks[In]} {
			want := 0.0
			if p.sources > 0 {
				want = float64(walks) / float64(p.sources)
			}
			if got := s.AvgDegree(p.label, p.typ, dir); got != want {
				t.Errorf("AvgDegree(%q, %q, %d) = %v, want %d/%d", p.label, p.typ, dir, got, walks, p.sources)
			}
		}
	}
	if got := s.syms.count(); got != syms {
		t.Errorf("AvgDegree interned %d symbols", got-syms)
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
		if err := s.DeleteNode(id); err != nil {
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
				if err := s.SetAttr(ids[i], "k", fmt.Sprint(i)); err != nil {
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
			if err := tx.DeleteNode(ids[0]); err != nil {
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
				if err := s.SetAttr(id, "family", "unknown"); err != nil {
					t.Fatal(err)
				}
			}
			for i, id := range ids[:60] {
				if err := s.SetAttr(id, "family", fmt.Sprintf("fam-%d", i)); err != nil {
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
	if got := s.NodeIDsByType("Malware"); len(got) != 10 {
		t.Errorf("NodeIDsByType: %d, want 10", len(got))
	}
	if got := s.NodeIDsByName("actor"); len(got) != 1 {
		t.Errorf("NodeIDsByName: %d, want 1", len(got))
	}
	if got := s.NodeIDsByAttr("platform", "linux"); len(got) != 5 {
		t.Errorf("NodeIDsByAttr: %d, want 5", len(got))
	}
	if got := s.NodeIDsByAttr("unindexed", "x"); got != nil {
		t.Errorf("NodeIDsByAttr unindexed should be nil, got %v", got)
	}
	if got := s.NodeIDsByTypeAttr("Malware", "platform", "linux"); len(got) != 5 {
		t.Errorf("NodeIDsByTypeAttr: %d, want 5", len(got))
	}
	ids := s.AllNodeIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("AllNodeIDs not sorted")
		}
	}
}
