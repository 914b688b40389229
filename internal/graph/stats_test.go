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

func TestDegreeStats(t *testing.T) {
	s := buildStatsStore(t)
	avg, max := s.DegreeStats(Out)
	if avg <= 0 || max < 4 { // malware 0 has 3 CONNECT + 1 ATTRIBUTED_TO
		t.Errorf("DegreeStats(Out) = %f, %d", avg, max)
	}
	if empty := New(); func() float64 { a, _ := empty.DegreeStats(Both); return a }() != 0 {
		t.Error("empty store degree should be 0")
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

func TestDegreeHistogram(t *testing.T) {
	s := buildStatsStore(t)
	// 10 Malware sources; 30 CONNECT edges spread i%10, so each malware
	// has exactly 3 outgoing CONNECTs (and malware 0 one extra edge of a
	// different type that must not count).
	h := s.DegreeHistogram("Malware", "CONNECT", Out)
	if h.Sources != 10 || h.NonZero != 10 || h.Walks != 30 || h.Max != 3 {
		t.Errorf("Malware/CONNECT/Out = %+v, want 10 sources, 30 walks, max 3", h)
	}
	if got := h.Avg(); got != 3 {
		t.Errorf("Avg = %f, want 3", got)
	}
	// Degree 3 lands in the [2,4) log2 bucket (index 1).
	if len(h.Buckets) != 2 || h.Buckets[1] != 10 {
		t.Errorf("Buckets = %v, want [0 10]", h.Buckets)
	}
	// IPs have no outgoing CONNECTs, one incoming each.
	if h := s.DegreeHistogram("IP", "CONNECT", Out); h.NonZero != 0 || h.Avg() != 0 {
		t.Errorf("IP/CONNECT/Out = %+v, want all-zero", h)
	}
	if h := s.DegreeHistogram("IP", "CONNECT", In); h.Sources != 30 || h.Walks != 30 || h.Max != 1 {
		t.Errorf("IP/CONNECT/In = %+v, want 30 sources each degree 1", h)
	}
	// "" label covers every node; "" type counts all edges; Both sums.
	if h := s.DegreeHistogram("", "", Both); h.Sources != 41 || h.Walks != 62 {
		t.Errorf("all/all/Both = %+v, want 41 sources, 62 walks", h)
	}
	if got := s.DegreeHistogram("Malware", "CONNECT", Out).AvgNonZero(); got != 3 {
		t.Errorf("AvgNonZero = %f, want 3", got)
	}
}

func TestDegreeHistogramCachePerVersion(t *testing.T) {
	s := buildStatsStore(t)
	before := s.DegreeHistogram("Malware", "CONNECT", Out)
	// A non-material write must serve the cached histogram unchanged.
	m0 := s.FindNode("Malware", "m-0")
	ip0 := s.FindNode("IP", "10.0.0.0")
	s.AddEdge(m0.ID, "CONNECT", ip0.ID, map[string]string{"x": "1"}) // dup edge: attr merge only
	if got := s.DegreeHistogram("Malware", "CONNECT", Out); got.Walks != before.Walks {
		t.Errorf("histogram recomputed on non-material write: %+v", got)
	}
	// A material change (bulk insert) must refresh it.
	ver := s.StatsVersion()
	for i := 0; i < 40; i++ {
		id, _ := s.MergeNode("Malware", fmt.Sprintf("new-%d", i), nil)
		s.AddEdge(id, "CONNECT", ip0.ID, nil)
	}
	if s.StatsVersion() == ver {
		t.Fatal("bulk insert did not bump the stats version")
	}
	h := s.DegreeHistogram("Malware", "CONNECT", Out)
	if h.Sources != 50 || h.Walks != 70 {
		t.Errorf("post-bulk histogram = %+v, want 50 sources, 70 walks", h)
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
