package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseExposition validates Prometheus text format 0.0.4 structurally —
// every sample line parses as `name[{labels}] value`, every family is
// declared with # HELP and # TYPE before its first sample — and returns
// the samples keyed by their full name (labels included) plus the
// declared family types.
func parseExposition(t *testing.T, body string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	var lastHelp string
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(f) < 2 || f[1] == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			lastHelp = f[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if f[0] != lastHelp {
				t.Fatalf("TYPE %s not preceded by its HELP (last HELP %s)", f[0], lastHelp)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			if !strings.HasSuffix(family, "}") {
				t.Fatalf("unbalanced label braces: %q", line)
			}
			family = family[:i]
		}
		// Histogram children sample under the family name + suffix.
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if _, ok := types[family]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", line)
			}
		}
		samples[name] = v
	}
	return samples, types
}

func scrape(t *testing.T, s *Server) (map[string]float64, map[string]string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	res := rec.Result()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics: %v", res.Status)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("wrong content type %q", ct)
	}
	return parseExposition(t, rec.Body.String())
}

func postCy(t *testing.T, s *Server, body map[string]any) map[string]any {
	t.Helper()
	b, _ := json.Marshal(body)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(b)))
	if rec.Code != 200 {
		t.Fatalf("cypher %v: %v %s", body, rec.Code, rec.Body.String())
	}
	var out map[string]any
	json.NewDecoder(rec.Body).Decode(&out)
	return out
}

// TestMetricsEndpoint scrapes /metrics on a standalone server around
// real traffic: valid exposition, the advertised families present, and
// every counter monotonically non-decreasing across work.
func TestMetricsEndpoint(t *testing.T) {
	s, store, _ := testServer(t)

	before, types := scrape(t, s)
	// WAL and replication families only exist when those packages are
	// linked into the process; the replication e2e metrics test covers
	// them on a real leader/follower pair.
	for _, fam := range []string{
		"skg_query_seconds", "skg_query_rows",
		"skg_plan_cache_hits_total", "skg_plan_cache_misses_total",
		"skg_query_budget_aborts_total",
		"skg_mvcc_snapshots_opened_total",
		"skg_tx_begin_total", "skg_tx_commit_total", "skg_tx_rollback_total",
		"skg_store_nodes", "skg_store_edges", "skg_store_stats_version",
		"skg_mvcc_open_snapshots", "skg_plan_cache_entries", "skg_uptime_seconds",
	} {
		if _, ok := types[fam]; !ok {
			t.Errorf("family %s missing from scrape", fam)
		}
	}
	if types["skg_query_seconds"] != "histogram" {
		t.Errorf("skg_query_seconds type = %s, want histogram", types["skg_query_seconds"])
	}
	if got := before["skg_store_nodes"]; got != float64(store.Stats().Nodes) {
		t.Errorf("skg_store_nodes = %v, want %d", got, store.Stats().Nodes)
	}

	// Traffic: reads (twice, so the second hits the plan cache), one
	// write, one statement through a transaction session.
	for i := 0; i < 2; i++ {
		postCy(t, s, map[string]any{
			"query":  `match (m:Malware {name: $n}) return m.name`,
			"params": map[string]any{"n": "wannacry"}})
	}
	postCy(t, s, map[string]any{"query": `create (x:IP {name: "1.2.3.4"})`})
	tx := postCy(t, s, map[string]any{"query": "BEGIN"})
	postCy(t, s, map[string]any{"tx": tx["tx"], "query": `create (x:IP {name: "5.6.7.8"})`})
	postCy(t, s, map[string]any{"tx": tx["tx"], "query": "COMMIT"})

	after, _ := scrape(t, s)
	for name, v := range before {
		fam := name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fam, "_bucket"), "_sum"), "_count")
		if types[base] == "gauge" || types[fam] == "gauge" {
			continue // gauges may move either way
		}
		if after[name] < v {
			t.Errorf("counter %s went backwards: %v -> %v", name, v, after[name])
		}
	}
	if after[`skg_query_seconds_count{kind="read"}`] < before[`skg_query_seconds_count{kind="read"}`]+2 {
		t.Errorf("read latency histogram did not record the reads: %v -> %v",
			before[`skg_query_seconds_count{kind="read"}`], after[`skg_query_seconds_count{kind="read"}`])
	}
	if after["skg_plan_cache_hits_total"] <= before["skg_plan_cache_hits_total"] {
		t.Errorf("repeated statement did not count a plan-cache hit")
	}
	if after["skg_tx_commit_total"] <= before["skg_tx_commit_total"] {
		t.Errorf("transaction commit not counted")
	}
	if got := after["skg_store_nodes"]; got != float64(store.Stats().Nodes) {
		t.Errorf("post-write skg_store_nodes = %v, want %d", got, store.Stats().Nodes)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	s, _, _ := testServer(t)
	var out map[string]any
	res := get(t, s, "/healthz", &out)
	if res.StatusCode != 200 {
		t.Fatalf("healthz: %v", res.Status)
	}
	for _, k := range []string{"uptime_s", "go_version", "version", "stats_version"} {
		if _, ok := out[k]; !ok {
			t.Errorf("healthz missing %q: %v", k, out)
		}
	}
	if gv, _ := out["go_version"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %v", out["go_version"])
	}
}

// TestSlowQueryLog pins the slow log's contract: kind, duration, rows
// and budget appear; bound parameter values never do.
func TestSlowQueryLog(t *testing.T) {
	s, _, _ := testServer(t)
	var buf bytes.Buffer
	s.SetSlowQueryLog(time.Nanosecond, log.New(&buf, "", 0))

	postCy(t, s, map[string]any{
		"query":  `match (m:Malware {name: $ioc}) where m.name <> $decoy return m.name`,
		"params": map[string]any{"ioc": "wannacry", "decoy": "hunted-secret-binding"}})
	line := buf.String()
	if line == "" {
		t.Fatal("1ns threshold logged nothing")
	}
	for _, want := range []string{"slow query:", "kind=read", "duration=", "rows=1", "budget_bytes=", "$ioc", "$decoy"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log line missing %q: %s", want, line)
		}
	}
	if strings.Contains(line, "hunted-secret-binding") {
		t.Fatalf("slow log leaked a parameter value: %s", line)
	}

	// The streaming path logs too, with its row count.
	buf.Reset()
	b, _ := json.Marshal(map[string]any{"query": `match (m:Malware) return m.name`, "stream": true})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(b)))
	if !strings.Contains(buf.String(), "kind=read") || !strings.Contains(buf.String(), "rows=") {
		t.Errorf("stream path not logged: %q", buf.String())
	}

	// Statements inside a transaction session log too, materialized and
	// streamed; BEGIN and COMMIT do not.
	buf.Reset()
	tx := postCy(t, s, map[string]any{"query": "BEGIN"})
	postCy(t, s, map[string]any{"tx": tx["tx"], "query": `create (x:IP {name: "9.9.9.9"})`})
	b, _ = json.Marshal(map[string]any{"tx": tx["tx"], "query": `match (x:IP {name: "9.9.9.9"}) return x.name`, "stream": true})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(b)))
	postCy(t, s, map[string]any{"tx": tx["tx"], "query": "COMMIT"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "kind=write") || !strings.Contains(lines[0], "9.9.9.9") ||
		!strings.Contains(lines[1], "kind=read") || !strings.Contains(lines[1], "rows=1") {
		t.Errorf("transaction statements not logged as two lines, write then read: %q", buf.String())
	}

	// Disabled again: silent.
	s.SetSlowQueryLog(0, log.New(&buf, "", 0))
	buf.Reset()
	postCy(t, s, map[string]any{"query": `match (m:Malware) return m.name`})
	if buf.Len() != 0 {
		t.Errorf("disabled slow log still wrote: %q", buf.String())
	}
}
