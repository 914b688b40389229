package analytics

import (
	"fmt"
	"math"
	"testing"

	"securitykg/internal/graph"
	"securitykg/internal/ontology"
)

func buildKG(t *testing.T) *graph.Store {
	t.Helper()
	s := graph.New()
	add := func(typ, name string, attrs map[string]string) graph.NodeID {
		id, _ := s.MergeNode(typ, name, attrs)
		return id
	}
	edge := func(a graph.NodeID, rel string, b graph.NodeID) {
		if _, _, err := s.AddEdge(a, rel, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Hub malware described by 3 reports; lesser malware by 1.
	hub := add("Malware", "BigThreat", nil)
	minor := add("Malware", "MinorThreat", nil)
	for i := 0; i < 3; i++ {
		rep := add("MalwareReport", fmt.Sprintf("rep-hub-%d", i),
			map[string]string{"published_at": fmt.Sprintf("2021-%02d-10", i+1)})
		edge(rep, "DESCRIBES", hub)
	}
	rep := add("MalwareReport", "rep-minor", map[string]string{"published_at": "2021-01-20"})
	edge(rep, "DESCRIBES", minor)

	// Actors with overlapping portfolios.
	a1 := add("ThreatActor", "AlphaGroup", nil)
	a2 := add("ThreatActor", "BetaGroup", nil)
	a3 := add("ThreatActor", "GammaGroup", nil)
	t1 := add("Technique", "spearphishing", nil)
	t2 := add("Technique", "credential dumping", nil)
	t3 := add("Technique", "dns tunneling", nil)
	tool := add("Tool", "Mimikatz", nil)
	sw := add("Software", "Exchange Server", nil)
	edge(a1, "USE", t1)
	edge(a1, "USE", t2)
	edge(a1, "USE", tool)
	edge(a2, "USE", t1)
	edge(a2, "USE", t2)
	edge(a3, "USE", t3)
	edge(a1, "TARGET", sw)
	edge(hub, "ATTRIBUTED_TO", a1)

	// An isolated pair: its own component.
	iso1 := add("Malware", "Standalone", nil)
	iso2 := add("IP", "203.0.113.9", nil)
	edge(iso1, "CONNECT", iso2)
	return s
}

func TestPageRankSumsToOneAndRanksHubs(t *testing.T) {
	s := buildKG(t)
	sn := s.Snapshot()
	defer sn.Release()
	ranks := pageRank(sn, 0.85, 40)
	var sum float64
	for _, r := range ranks {
		if r < 0 {
			t.Fatalf("negative rank %f", r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %f, want 1", sum)
	}
	hub := sn.FindNode("Malware", "BigThreat")
	minor := sn.FindNode("Malware", "MinorThreat")
	if ranks[hub.ID] <= ranks[minor.ID] {
		t.Errorf("hub (%f) should outrank minor (%f)", ranks[hub.ID], ranks[minor.ID])
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	sn := graph.New().Snapshot()
	defer sn.Release()
	if got := pageRank(sn, 0.85, 10); len(got) != 0 {
		t.Errorf("empty graph ranks: %v", got)
	}
}

func TestTopThreatsFiltersAndOrders(t *testing.T) {
	s := buildKG(t)
	top := TopThreats(s, 3, []ontology.EntityType{ontology.TypeMalware})
	if len(top) != 3 {
		t.Fatalf("top: %d", len(top))
	}
	if top[0].Node.Name != "BigThreat" {
		t.Errorf("top threat: %s", top[0].Node.Name)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Error("not sorted by score")
		}
	}
	// Default filter: threat concepts only (no reports/IOCs).
	for _, r := range TopThreats(s, 0, nil) {
		et := ontology.EntityType(r.Node.Type)
		if !ontology.IsThreatConcept(et) {
			t.Errorf("non-threat-concept in default TopThreats: %s", r.Node.Type)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	s := buildKG(t)
	// Four clusters: the hub campaign (reports, actors, techniques, tool,
	// software), MinorThreat+its report, GammaGroup+its technique, and the
	// isolated malware/IP pair.
	comps := ConnectedComponents(s)
	if len(comps) != 4 {
		t.Fatalf("components: %d, want 4", len(comps))
	}
	for i := 1; i < len(comps); i++ {
		if comps[i].Size > comps[i-1].Size {
			t.Error("components not sorted by size")
		}
	}
	if comps[0].Size < 10 {
		t.Errorf("main campaign cluster too small: %d", comps[0].Size)
	}
	total := 0
	for _, c := range comps {
		total += c.Size
	}
	if total != s.Stats().Nodes {
		t.Errorf("components cover %d nodes of %d", total, s.Stats().Nodes)
	}
}

func TestProfileActor(t *testing.T) {
	s := buildKG(t)
	p := ProfileActor(s, "AlphaGroup")
	if p == nil {
		t.Fatal("profile nil")
	}
	if len(p.Techniques) != 2 || p.Techniques[0] != "credential dumping" {
		t.Errorf("techniques: %v", p.Techniques)
	}
	if len(p.Tools) != 1 || p.Tools[0] != "Mimikatz" {
		t.Errorf("tools: %v", p.Tools)
	}
	if len(p.Malware) != 1 || p.Malware[0] != "BigThreat" {
		t.Errorf("malware: %v", p.Malware)
	}
	if len(p.Targets) != 1 || p.Targets[0] != "Exchange Server" {
		t.Errorf("targets: %v", p.Targets)
	}
	if ProfileActor(s, "NoSuchActor") != nil {
		t.Error("missing actor should be nil")
	}
}

func TestSimilarActors(t *testing.T) {
	s := buildKG(t)
	sim := SimilarActors(s, "AlphaGroup", 5)
	if len(sim) != 1 {
		t.Fatalf("similar: %+v", sim)
	}
	if sim[0].Node.Name != "BetaGroup" {
		t.Errorf("most similar: %s", sim[0].Node.Name)
	}
	// Jaccard: |{t1,t2}| / |{t1,t2,tool}| = 2/3.
	if math.Abs(sim[0].Score-2.0/3.0) > 1e-9 {
		t.Errorf("jaccard: %f", sim[0].Score)
	}
	// Gamma shares nothing: excluded.
	for _, r := range sim {
		if r.Node.Name == "GammaGroup" {
			t.Error("disjoint actor listed as similar")
		}
	}
	if got := SimilarActors(s, "NoSuchActor", 3); got != nil {
		t.Errorf("missing actor: %+v", got)
	}
}

func TestTimeline(t *testing.T) {
	s := buildKG(t)
	sn := s.Snapshot()
	defer sn.Release()
	hub := sn.FindNode("Malware", "BigThreat")
	tl := Timeline(s, hub.ID)
	if len(tl) != 3 {
		t.Fatalf("timeline buckets: %+v", tl)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i-1].Period >= tl[i].Period {
			t.Error("timeline not sorted")
		}
	}
	if tl[0].Period != "2021-01" || tl[0].Count != 1 {
		t.Errorf("first bucket: %+v", tl[0])
	}
}
