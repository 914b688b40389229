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
// copy — a single immaterial write shows at once.
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

func TestStatsVersionMaterialityThreshold(t *testing.T) {
	s := New()
	for i := 0; i < 200; i++ {
		s.MergeNode("T", fmt.Sprintf("n%d", i), nil)
	}
	ver := s.StatsVersion()
	// Single-row writes on a 200-node store are immaterial.
	id, _ := s.MergeNode("T", "extra", nil)
	if err := s.SetAttr(id, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteNode(id); err != nil {
		t.Fatal(err)
	}
	if s.StatsVersion() != ver {
		t.Fatalf("immaterial writes bumped the stats version")
	}
	// Growing the store by >12.5% is material.
	for i := 0; i < 40; i++ {
		s.MergeNode("T", fmt.Sprintf("grow%d", i), nil)
	}
	if s.StatsVersion() == ver {
		t.Fatal("material growth did not bump the stats version")
	}
	// A small label drifting materially bumps even when totals barely move.
	ver = s.StatsVersion()
	for i := 0; i < 8; i++ {
		s.MergeNode("Rare", fmt.Sprintf("r%d", i), nil)
	}
	if s.StatsVersion() == ver {
		t.Fatal("new label's growth did not bump the stats version")
	}
	// IndexAttr always bumps: it creates a new access path.
	ver = s.StatsVersion()
	s.IndexAttr("k")
	if s.StatsVersion() == ver {
		t.Fatal("IndexAttr did not bump the stats version")
	}
}

func TestStatsVersionTracksIndexedAttrSpread(t *testing.T) {
	// AvgAttrBucket (nodes per distinct indexed value) is a plan-time
	// input: an indexed key spreading from one value to many is material
	// even though no node/label/edge count moves.
	s := New()
	s.IndexAttr("family")
	var ids []NodeID
	for i := 0; i < 200; i++ {
		id, _ := s.MergeNode("T", fmt.Sprintf("n%d", i), map[string]string{"family": "unknown"})
		ids = append(ids, id)
	}
	ver := s.StatsVersion()
	// A couple of re-labels: immaterial.
	s.SetAttr(ids[0], "family", "emotet")
	if s.StatsVersion() != ver {
		t.Fatal("single indexed-attr write was treated as material")
	}
	// Spreading across dozens of distinct values: material.
	for i, id := range ids[:60] {
		if err := s.SetAttr(id, "family", fmt.Sprintf("fam-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.StatsVersion() == ver {
		t.Fatal("indexed attribute spreading across values did not bump the stats version")
	}
}

func TestStatsVersionTracksDistinctNameDrift(t *testing.T) {
	// AvgNameBucket (nodes / distinct names) is a plan-time input too: a
	// store whose node count stays flat while its names spread from a few
	// shared buckets to mostly-unique is a material change.
	s := New()
	var ids []NodeID
	for i := 0; i < 200; i++ {
		// 200 nodes over 4 shared names (distinct labels keep (type,name) unique).
		id, _ := s.MergeNode(fmt.Sprintf("T%d", i), fmt.Sprintf("shared-%d", i%4), nil)
		ids = append(ids, id)
	}
	ver := s.StatsVersion()
	// Rename churn via delete+merge pairs: totals stay inside the drift
	// bound, but distinct names climb 4 -> ~24.
	for i := 0; i < 20; i++ {
		if err := s.DeleteNode(ids[i]); err != nil {
			t.Fatal(err)
		}
		s.MergeNode(fmt.Sprintf("T%d", i), fmt.Sprintf("unique-%d", i), nil)
	}
	if s.StatsVersion() == ver {
		t.Fatal("distinct-name spread did not bump the stats version")
	}
}

func TestStatsVersionRebasedOnLoad(t *testing.T) {
	s := buildStatsStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ver := s2.StatsVersion()
	// The loaded store's base is its loaded size, so a single write on it
	// is immaterial — not a drift from an empty base.
	s2.MergeNode("Malware", "fresh", nil)
	if s2.StatsVersion() != ver {
		t.Fatal("single write after Load was treated as material")
	}
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
