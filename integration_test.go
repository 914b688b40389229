package securitykg

// Cross-module integration tests: the full lifecycle including persistence,
// the exploration server over real ingested data, and ground-truth recall
// through every stage at once.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"securitykg/internal/cypher"
	"securitykg/internal/fusion"
	"securitykg/internal/graph"
	"securitykg/internal/ontology"
	"securitykg/internal/server"
	"securitykg/internal/storage"
)

func TestIntegrationLifecycleDataDirExploreQuery(t *testing.T) {
	dir := t.TempDir()
	sys, db := durableSystem(t, dir)

	// Query the live store, then the store storage.Open recovers from the
	// data directory: the rows must agree exactly.
	q := `match (m:Malware)-[:CONNECT]->(x) return m.name, x.name order by m.name, x.name limit 10`
	live, err := sys.Engine().Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Rows) == 0 {
		t.Fatal("query returns no rows on the ingested graph")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	recovered, err := cypher.NewEngine(db2.Store(), cypher.DefaultOptions()).Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(recovered), renderRows(live); got != want {
		t.Errorf("query over the recovered data directory differs:\n got %s\nwant %s", got, want)
	}

	// Exploration server over the recovered store.
	srv := httptest.NewServer(server.New(db2.Store(), sys.Index))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var gs graph.Stats
	if err := json.NewDecoder(resp.Body).Decode(&gs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gs.Nodes != sys.Store.Stats().Nodes {
		t.Errorf("server stats mismatch: %d vs %d", gs.Nodes, sys.Store.Stats().Nodes)
	}
}

// renderRows renders a result's columns and rows, one row a line.
func renderRows(r *cypher.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ",") + "\n")
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestIntegrationGroundTruthEntityRecall(t *testing.T) {
	sys, _ := sharedSystem(t)
	// Every report's main malware and the report's IOC set should be
	// findable in the KG (modulo NER noise): measure recall over truth.
	web := sys.Web()
	var totalMal, foundMal, totalIOC, foundIOC int
	for _, spec := range sys.Sources() {
		for i := 0; i < spec.Reports; i++ {
			truth := web.GenerateTruth(spec, i)
			for _, e := range truth.Entities {
				switch {
				case e.Type == ontology.TypeMalware:
					totalMal++
					if findNode(sys.Store, string(e.Type), e.Name) != nil {
						foundMal++
					}
				case ontology.IsIOCType(e.Type):
					totalIOC++
					if findNode(sys.Store, string(e.Type), e.Name) != nil {
						foundIOC++
					}
				}
			}
		}
	}
	if r := float64(foundMal) / float64(totalMal); r < 0.8 {
		t.Errorf("malware entity recall %.3f (%d/%d), want >= 0.8", r, foundMal, totalMal)
	}
	if r := float64(foundIOC) / float64(totalIOC); r < 0.95 {
		t.Errorf("IOC recall %.3f (%d/%d), want >= 0.95 (regex-based)", r, foundIOC, totalIOC)
	}
}

func TestIntegrationFusionMergesGeneratedAliases(t *testing.T) {
	sys, _ := sharedSystem(t)
	// Count alias-variant malware in the ground truth, then check fusion
	// actually merged variants whose canonical form also appears.
	web := sys.Web()
	canonicalSeen := map[string]bool{}
	aliasOf := map[string]string{}
	for _, spec := range sys.Sources() {
		for i := 0; i < spec.Reports; i++ {
			truth := web.GenerateTruth(spec, i)
			mal := truth.Entities[0]
			if truth.AliasOf != "" {
				aliasOf[mal.Name] = truth.AliasOf
			} else if !truth.UnseenMalware {
				canonicalSeen[mal.Name] = true
			}
		}
	}
	// Fusion ran in sharedSystem? It did not necessarily; run again —
	// idempotent.
	if _, err := fusion.Fuse(sys.Store, fusion.Options{}); err != nil {
		t.Fatal(err)
	}
	mergeable, merged := 0, 0
	for alias, canon := range aliasOf {
		if !canonicalSeen[canon] {
			continue // canonical never appeared: nothing to merge into
		}
		mergeable++
		if findNode(sys.Store, "Malware", alias) == nil {
			merged++ // alias node folded away
			continue
		}
		// Or the canonical was folded into the alias (degree tie): accept
		// if either node records the other as alias.
		if n := findNode(sys.Store, "Malware", canon); n != nil &&
			strings.Contains(n.Attrs.Get("aliases"), alias) {
			merged++
		} else if n := findNode(sys.Store, "Malware", alias); n != nil &&
			strings.Contains(n.Attrs.Get("aliases"), canon) {
			merged++
		}
	}
	if mergeable == 0 {
		t.Skip("no mergeable aliases in this sample")
	}
	if float64(merged)/float64(mergeable) < 0.7 {
		t.Errorf("fusion merged %d/%d alias pairs", merged, mergeable)
	}
}

func TestIntegrationIncrementalCollectNoDuplicates(t *testing.T) {
	sys, _ := sharedSystem(t)
	before := sys.Store.Stats()
	st, err := sys.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Process.Connected != 0 {
		t.Errorf("incremental re-collect processed %d reports, want 0", st.Process.Connected)
	}
	after := sys.Store.Stats()
	if before.Nodes != after.Nodes || before.Edges != after.Edges {
		t.Errorf("re-collect changed graph: %+v -> %+v", before, after)
	}
}
