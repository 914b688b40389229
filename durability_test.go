package securitykg

// End-to-end durability: the exploration server over a write-ahead
// logged store round-trips state across a simulated restart — the
// acceptance path `skg-server --data-dir` exercises, minus the
// process boundary (internal/storage's crash tests cover that half).

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"securitykg/internal/server"
	"securitykg/internal/storage"
)

func TestServerDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Session 1: open a durable store, serve it, write through the API.
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{ReportsPerSource: 1, SourceSlugs: []string{"acme-encyclopedia"}})
	if err != nil {
		t.Fatal(err)
	}
	sys.AdoptStore(db.Store())
	srv := server.New(sys.Store, sys.Index)
	post := func(q string, params map[string]any) map[string]any {
		body, _ := json.Marshal(map[string]any{"query": q, "params": params})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("cypher %q: status %d: %s", q, rec.Code, rec.Body.String())
		}
		var out map[string]any
		json.Unmarshal(rec.Body.Bytes(), &out)
		return out
	}
	out := post(`create (m:Malware {name: $ioc})-[:CONNECT]->(ip:IP {name: "203.0.113.7"})`,
		map[string]any{"ioc": "restart-probe"})
	if ws := out["writes"].(map[string]any); ws["nodes_created"].(float64) != 2 {
		t.Fatalf("writes: %v", out)
	}
	post(`match (m:Malware {name: $ioc}) set m.triaged = "true"`, map[string]any{"ioc": "restart-probe"})
	if err := db.Checkpoint(); err != nil { // the SIGTERM path
		t.Fatal(err)
	}
	// More writes after the checkpoint land only in the WAL tail.
	post(`merge (t:Tool {name: "tail-tool"})`, nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: recover and verify snapshot + tail both survived.
	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	sys2, err := New(Options{ReportsPerSource: 1, SourceSlugs: []string{"acme-encyclopedia"}})
	if err != nil {
		t.Fatal(err)
	}
	sys2.AdoptStore(db2.Store())
	res, err := sys2.Engine().Query(`match (m:Malware {name: $ioc})-[:CONNECT]->(ip) return m.triaged, ip.name`,
		map[string]any{"ioc": "restart-probe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "true" || res.Rows[0][1].String() != "203.0.113.7" {
		t.Fatalf("checkpointed state lost: %+v", res.Rows)
	}
	if findNode(sys2.Store, "Tool", "tail-tool") == nil {
		t.Fatal("WAL-tail write lost across restart")
	}
}
