package connector

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"securitykg/internal/ctirep"
	"securitykg/internal/graph"
	"securitykg/internal/ontology"
	"securitykg/internal/relstore"
	"securitykg/internal/search"
)

func sampleCTI() *ctirep.CTIRep {
	return &ctirep.CTIRep{
		ReportID:    "rep-1",
		Source:      "acme",
		URL:         "https://acme/r/1",
		Title:       "WannaCry analysis",
		Vendor:      "AcmeSec",
		Kind:        "malware",
		PublishedAt: "2021-02-26",
		Text:        "WannaCry encrypts files and connects to 10.0.0.5.",
		Entities: []ontology.Entity{
			{Type: ontology.TypeMalware, Name: "WannaCry"},
			{Type: ontology.TypeIP, Name: "10.0.0.5"},
			{Type: "Bogus", Name: "skipme"}, // must be skipped, not fail
		},
		Relations: []ontology.Relation{
			{
				Src:  ontology.Entity{Type: ontology.TypeMalware, Name: "WannaCry"},
				Type: ontology.RelConnectsTo,
				Dst:  ontology.Entity{Type: ontology.TypeIP, Name: "10.0.0.5"},
			},
			{ // schema-invalid: skipped
				Src:  ontology.Entity{Type: ontology.TypeIP, Name: "10.0.0.5"},
				Type: ontology.RelEncrypts,
				Dst:  ontology.Entity{Type: ontology.TypeMalware, Name: "WannaCry"},
			},
		},
	}
}

// TestRebuildIndexHitIsReportID: a hit from an index rebuilt off the
// graph names the report by its report_id, as the index Connect fills
// does.
func TestRebuildIndexHitIsReportID(t *testing.T) {
	store := graph.New()
	live := search.NewIndex(nil)
	if err := NewGraphConnector(store, live).Connect(sampleCTI()); err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]*search.Index{"live": live, "rebuilt": RebuildIndex(store)} {
		hits := idx.Search("wannacry analysis", 5)
		if len(hits) != 1 || hits[0].ID != "rep-1" {
			t.Errorf("%s index hits %+v, want one hit with ID rep-1", name, hits)
		}
	}
}

func TestGraphConnectorRefactorsToOntology(t *testing.T) {
	store := graph.New()
	idx := search.NewIndex(nil)
	gc := NewGraphConnector(store, idx)
	if err := gc.Connect(sampleCTI()); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	// Report node with attrs.
	rep := sn.FindNode(string(ontology.TypeMalwareReport), "WannaCry analysis")
	if rep == nil || rep.Attrs.Get("report_id") != "rep-1" {
		t.Fatalf("report node: %+v", rep)
	}
	// Vendor attribution.
	vendor := sn.FindNode(string(ontology.TypeCTIVendor), "AcmeSec")
	if vendor == nil {
		t.Fatal("vendor node missing")
	}
	// DESCRIBES for threat concept, MENTIONS for IOC.
	mal := sn.FindNode(string(ontology.TypeMalware), "WannaCry")
	ip := sn.FindNode(string(ontology.TypeIP), "10.0.0.5")
	if mal == nil || ip == nil {
		t.Fatal("entity nodes missing")
	}
	edgeTypes := map[string]bool{}
	for _, e := range sn.Edges(rep.ID, graph.Out) {
		edgeTypes[e.Type] = true
	}
	if !edgeTypes[string(ontology.RelReportedBy)] || !edgeTypes[string(ontology.RelDescribes)] ||
		!edgeTypes[string(ontology.RelMentions)] {
		t.Errorf("report edge types: %+v", edgeTypes)
	}
	// Extracted relation became an edge; invalid one skipped.
	outs := sn.Edges(mal.ID, graph.Out)
	if len(outs) != 1 || outs[0].Type != string(ontology.RelConnectsTo) {
		t.Errorf("malware out edges: %+v", outs)
	}
	if ins := sn.Edges(mal.ID, graph.In); len(ins) != 1 {
		t.Errorf("invalid relation leaked: %+v", ins)
	}
	// Bogus entity skipped silently.
	if n := sn.NodeIDsByName("skipme"); len(n) != 0 {
		t.Error("invalid entity stored")
	}
	// Search index covers the report.
	if hits := idx.Search("wannacry", 5); len(hits) != 1 || hits[0].ID != "rep-1" {
		t.Errorf("index: %+v", hits)
	}
}

func TestGraphConnectorIdempotent(t *testing.T) {
	store := graph.New()
	gc := NewGraphConnector(store, nil)
	if err := gc.Connect(sampleCTI()); err != nil {
		t.Fatal(err)
	}
	first := store.Stats()
	if err := gc.Connect(sampleCTI()); err != nil {
		t.Fatal(err)
	}
	second := store.Stats()
	if first.Nodes != second.Nodes || first.Edges != second.Edges {
		t.Errorf("re-connect changed graph: %+v vs %+v", first, second)
	}
}

func TestLogConnectorWritesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	lc := NewLogConnector(&buf)
	if lc.Name() != "log" {
		t.Error("name")
	}
	if err := lc.Connect(sampleCTI()); err != nil {
		t.Fatal(err)
	}
	if err := lc.Connect(sampleCTI()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	var c ctirep.CTIRep
	if err := json.Unmarshal([]byte(lines[0]), &c); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if c.ReportID != "rep-1" {
		t.Errorf("round trip: %+v", c)
	}
}

func TestRelConnectorTables(t *testing.T) {
	rs := relstore.New()
	rc, err := NewRelConnector(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Connect(sampleCTI()); err != nil {
		t.Fatal(err)
	}
	second := sampleCTI()
	second.ReportID = "rep-2"
	second.URL = "https://acme/r/2"
	if err := rc.Connect(second); err != nil {
		t.Fatal(err)
	}
	if rc.Connected() != 2 {
		t.Errorf("connected count: %d", rc.Connected())
	}
	if n, _ := rs.Count(TableReports); n != 2 {
		t.Errorf("reports rows: %d", n)
	}
	// Entities table dedups across reports.
	ents, err := rs.Select(TableEntities, relstore.Row{"name": "WannaCry"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("entity dedup: %+v", ents)
	}
	// Mentions accumulate per report.
	mentions, _ := rs.Select(TableMentions, relstore.Row{"report_id": "rep-1"})
	if len(mentions) != 2 { // WannaCry + IP (bogus skipped)
		t.Errorf("mentions: %+v", mentions)
	}
	rels, _ := rs.Select(TableRelations, nil)
	if len(rels) != 2 { // one valid relation per Connect call
		t.Errorf("relations rows: %d", len(rels))
	}
}

func TestRelConnectorSchemaConflict(t *testing.T) {
	rs := relstore.New()
	if _, err := NewRelConnector(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRelConnector(rs); err == nil {
		t.Error("second schema creation on same store should fail")
	}
}

// A panic in the middle of a report's writes must not leave the store's
// writer lock held: the next transaction's write has to go through.
func TestConnectPanicReleasesWriter(t *testing.T) {
	store := graph.New()
	gc := NewGraphConnector(store, nil)
	gc.write = func(tx *graph.Tx, c *ctirep.CTIRep) error {
		tx.MergeNode("Malware", "half-written", nil)
		panic("injected write fault")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Connect did not panic")
			}
		}()
		gc.Connect(sampleCTI())
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx := store.BeginTx()
		tx.MergeNode("Malware", "after", nil)
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("a write after the panicked Connect is still waiting after 1s")
	}
	if got := store.Stats().Nodes; got != 1 {
		t.Errorf("%d nodes after the rolled-back report and one write, want 1", got)
	}
}
