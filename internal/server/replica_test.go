package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
)

// readPaths are the six GET read endpoints that accept min_seq, against
// testServer's graph.
func readPaths(wc graph.NodeID) []string {
	return []string{
		"/api/stats",
		"/api/search?q=wannacry",
		fmt.Sprintf("/api/node?id=%d", wc),
		fmt.Sprintf("/api/expand?id=%d", wc),
		fmt.Sprintf("/api/collapse?id=%d", wc),
		"/api/random?n=3",
	}
}

// withParam appends one query parameter to path.
func withParam(path, kv string) string {
	if strings.Contains(path, "?") {
		return path + "&" + kv
	}
	return path + "?" + kv
}

// errorOf decodes an error response body.
func errorOf(t *testing.T, rec *httptest.ResponseRecorder) map[string]string {
	t.Helper()
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), err)
	}
	return out
}

func serve(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// replicaServer is testServer's graph behind a read-only engine wired as
// a replica whose applied seq is applied: WaitSeq returns at once for a
// seq already applied, and otherwise blocks until its context ends.
func replicaServer(t *testing.T, applied uint64) (*Server, graph.NodeID, *atomic.Uint64) {
	t.Helper()
	base, store, wc := testServer(t)
	opts := cypher.DefaultOptions()
	opts.ReadOnly = true
	s := NewWith(store, base.index, opts)
	var waited atomic.Uint64
	s.SetReplication(Replication{
		Role:      "replica",
		LeaderURL: "http://leader.example:8080",
		Seq:       func() uint64 { return applied },
		Lag:       func() int64 { return 3 },
		WaitSeq: func(ctx context.Context, seq uint64) error {
			waited.Store(seq)
			if seq <= applied {
				return nil
			}
			<-ctx.Done()
			return ctx.Err()
		},
		Health: func() map[string]any { return map[string]any{"data_dir": "locked"} },
	})
	return s, wc, &waited
}

// TestMalformedMinSeqRefused: a min_seq that is not a sequence number is
// a 400 on every read endpoint, standalone or replica, instead of a read
// that ignores the token.
func TestMalformedMinSeqRefused(t *testing.T) {
	standalone, _, wc := testServer(t)
	replica, _, _ := replicaServer(t, 7)
	for _, s := range []*Server{standalone, replica} {
		for _, path := range readPaths(wc) {
			for _, bad := range []string{"abc", "-1", "1.5", "18446744073709551616"} {
				rec := serve(s, "GET", withParam(path, "min_seq="+bad), nil)
				if rec.Code != 400 {
					t.Errorf("%s min_seq=%s: status %d, want 400", path, bad, rec.Code)
					continue
				}
				want := fmt.Sprintf("min_seq=%s is not a sequence number", bad)
				if got := errorOf(t, rec)["error"]; got != want {
					t.Errorf("%s: error %q, want %q", path, got, want)
				}
			}
			if rec := serve(s, "GET", withParam(path, "min_seq=0"), nil); rec.Code != 200 {
				t.Errorf("%s min_seq=0: status %d, want 200", path, rec.Code)
			}
		}
	}
	// /api/cypher refuses the same mistake through its JSON field.
	rec := serve(replica, "POST", "/api/cypher", []byte(`{"query":"match (n) return n.name","min_seq":"abc"}`))
	if rec.Code != 400 {
		t.Errorf("/api/cypher min_seq \"abc\": status %d, want 400", rec.Code)
	}
}

// TestReplicaMinSeq: a min_seq the replica has applied reads at once; one
// it never reaches answers 504 after wait_ms, naming the applied seq.
func TestReplicaMinSeq(t *testing.T) {
	s, wc, waited := replicaServer(t, 7)
	for _, path := range readPaths(wc) {
		rec := serve(s, "GET", withParam(path, "min_seq=7"), nil)
		if rec.Code != 200 {
			t.Errorf("%s min_seq=7: status %d (%s), want 200", path, rec.Code, rec.Body.String())
		}
		if got := waited.Load(); got != 7 {
			t.Errorf("%s: WaitSeq saw seq %d, want 7", path, got)
		}
		rec = serve(s, "GET", withParam(path, "min_seq=9&wait_ms=50"), nil)
		if rec.Code != 504 {
			t.Errorf("%s min_seq=9: status %d, want 504", path, rec.Code)
			continue
		}
		msg := errorOf(t, rec)["error"]
		if !strings.Contains(msg, "seq 9") || !strings.Contains(msg, "50ms") || !strings.Contains(msg, "(applied 7)") {
			t.Errorf("%s: 504 error %q, want the seq, the wait and the applied seq", path, msg)
		}
	}
	body := []byte(`{"query":"match (m:Malware) return m.name","min_seq":9}`)
	if rec := serve(s, "POST", "/api/cypher?wait_ms=50", body); rec.Code != 504 {
		t.Errorf("/api/cypher min_seq 9: status %d, want 504", rec.Code)
	}
	// A wait_ms that does not parse is refused, not read as no bound.
	for _, path := range []string{"/api/stats?min_seq=9&wait_ms=abc", "/api/stats?min_seq=9&wait_ms=50ms"} {
		rec := serve(s, "GET", path, nil)
		if rec.Code != 400 || !strings.Contains(errorOf(t, rec)["error"], "wait_ms=") {
			t.Errorf("%s: status %d body %s, want 400 naming wait_ms", path, rec.Code, rec.Body.String())
		}
	}

	// A replica without a Seq callback reports applied 0.
	base, store, _ := testServer(t)
	bare := NewWith(store, base.index, cypher.DefaultOptions())
	bare.SetReplication(Replication{Role: "replica", WaitSeq: func(ctx context.Context, _ uint64) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	rec := serve(bare, "GET", "/api/stats?min_seq=1&wait_ms=50", nil)
	if rec.Code != 504 || !strings.Contains(errorOf(t, rec)["error"], "(applied 0)") {
		t.Errorf("no Seq callback: status %d body %s, want 504 naming applied 0", rec.Code, rec.Body.String())
	}
}

// TestReplicaRedirectsWrites: every way of writing to a replica — a plain
// or streamed write statement, or BEGIN — answers 421 not_leader with the
// leader's URL, and nothing is written.
func TestReplicaRedirectsWrites(t *testing.T) {
	s, _, _ := replicaServer(t, 7)
	before := s.store.Stats().Nodes
	for _, body := range []string{
		`{"query":"create (x:IP {name: \"9.9.9.9\"})"}`,
		`{"query":"create (x:IP {name: \"9.9.9.9\"}) return x.name","stream":true}`,
		`{"query":"BEGIN"}`,
	} {
		rec := serve(s, "POST", "/api/cypher", []byte(body))
		if rec.Code != 421 {
			t.Errorf("%s: status %d (%s), want 421", body, rec.Code, rec.Body.String())
			continue
		}
		out := errorOf(t, rec)
		if out["code"] != "not_leader" || out["leader"] != "http://leader.example:8080" {
			t.Errorf("%s: body %v, want code not_leader and the leader URL", body, out)
		}
	}
	if got := s.store.Stats().Nodes; got != before {
		t.Errorf("replica wrote: %d nodes, want %d", got, before)
	}
	// Reads still answer, and a read-only error on a standalone server
	// stays a plain 400.
	if rec := serve(s, "POST", "/api/cypher", []byte(`{"query":"match (m:Malware) return m.name"}`)); rec.Code != 200 {
		t.Errorf("read on replica: status %d", rec.Code)
	}
	_, store, _ := testServer(t)
	ro := NewWith(store, search.NewIndex(nil), cypher.Options{UseIndexes: true, ReadOnly: true})
	if rec := serve(ro, "POST", "/api/cypher", []byte(`{"query":"create (x:IP {name: \"9.9.9.9\"})"}`)); rec.Code != 400 {
		t.Errorf("read-only standalone write: status %d, want 400", rec.Code)
	}
}

// TestReplicationObservability: the replication gauges appear on /metrics
// and in Metrics(), and /healthz reports the role, the seq and the
// wiring's health fields.
func TestReplicationObservability(t *testing.T) {
	s, _, _ := replicaServer(t, 7)
	samples, types := scrape(t, s)
	for name, want := range map[string]float64{"skg_replication_seq": 7, "skg_replication_lag_records": 3} {
		if types[name] != "gauge" {
			t.Errorf("%s: type %q, want gauge", name, types[name])
		}
		if samples[name] != want {
			t.Errorf("%s = %v, want %v", name, samples[name], want)
		}
	}
	if m := s.Metrics(); !strings.Contains(m, "skg_replication_seq 7") || !strings.Contains(m, "skg_replication_lag_records 3") {
		t.Errorf("Metrics() lacks the replication gauges")
	}
	if rec := serve(s, "POST", "/metrics", nil); rec.Code != 405 {
		t.Errorf("POST /metrics: status %d, want 405", rec.Code)
	}
	var hz map[string]any
	if res := get(t, s, "/healthz", &hz); res.StatusCode != 200 {
		t.Fatalf("healthz: %v", res.Status)
	}
	if hz["role"] != "replica" || hz["seq"] != float64(7) || hz["data_dir"] != "locked" {
		t.Errorf("healthz = %v, want role replica, seq 7 and the Health fields", hz)
	}
}

// TestPrimaryWritesCarrySeq: on a primary, a committed write's response —
// materialized or streamed — carries the read-your-writes token.
func TestPrimaryWritesCarrySeq(t *testing.T) {
	s, _, _ := testServer(t)
	s.SetReplication(Replication{Role: "primary", Seq: func() uint64 { return 42 }})
	out := postCy(t, s, map[string]any{"query": `create (x:IP {name: "8.8.8.8"})`})
	if out["seq"] != float64(42) {
		t.Errorf("write response %v, want seq 42", out)
	}
	rec := serve(s, "POST", "/api/cypher", []byte(`{"query":"create (x:IP {name: \"8.8.4.4\"}) return x.name","stream":true}`))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var trailer map[string]any
	json.Unmarshal([]byte(lines[len(lines)-1]), &trailer)
	if trailer["seq"] != float64(42) || trailer["writes"] == nil {
		t.Errorf("stream trailer %v, want writes and seq 42", trailer)
	}
	// A read carries none.
	if out := postCy(t, s, map[string]any{"query": `match (m:Malware) return m.name`}); out["seq"] != nil {
		t.Errorf("read response carries seq: %v", out)
	}
}

// TestCollapseBadParams: each malformed /api/collapse parameter is a 400
// naming it.
func TestCollapseBadParams(t *testing.T) {
	s, _, wc := testServer(t)
	for path, want := range map[string]string{
		"/api/collapse":      "missing id",
		"/api/collapse?id=x": "bad id",
		fmt.Sprintf("/api/collapse?id=%d&view=1,x", wc):         `bad view entry "x"`,
		fmt.Sprintf("/api/collapse?id=%d&view=1&anchors=y", wc): `bad anchors entry "y"`,
	} {
		rec := serve(s, "GET", path, nil)
		if rec.Code != 400 || !strings.Contains(errorOf(t, rec)["error"], want) {
			t.Errorf("%s: status %d body %s, want 400 with %q", path, rec.Code, rec.Body.String(), want)
		}
	}
}
