package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
)

// The byte-identity oracle of the heavy-read row path. testdata/
// golden_bodies.json holds the /api/cypher response bodies —
// materialized, {"stream":true}, and the EXPLAIN ANALYZE operator counts
// of the scan classes — that the commit BEFORE the slot-frame / chunked
// read / heap top-k / NDJSON-writer change produced for the statements
// below over goldenKG. This test regenerates them and compares byte for
// byte, so a row-path optimization can change how fast a response is
// produced and nothing else. -update-golden rewrites the file; doing so
// is only legitimate when a change means to alter response bytes.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bodies.json from this build")

const goldenPath = "testdata/golden_bodies.json"

// orderByTotalOrder lists the cases that are NOT compared with that
// earlier commit, with the first column they must return instead. It
// compared a null or mixed-kind ORDER BY key as "equal to everything" —
// not an order at all, so what came back depended on the sort's
// internals (its ascending answer to topk-nulls-asc was not even
// sorted) — where the engine now has a total order: nulls last
// ascending, first descending, ties in arrival (here: node ID) order.
var orderByTotalOrder = map[string][]string{
	"topk-nulls": {"adv-0", "adv-3", "adv-6", "adv-9", "adv-12"},
	"topk-nulls-asc": {
		"adv-1", "adv-13", "adv-25", "adv-14", "adv-2", "adv-26", "adv-16", "adv-28", "adv-4", "adv-17",
		"adv-29", "adv-5", "adv-19", "adv-7", "adv-20", "adv-8", "adv-10", "adv-22", "adv-11", "adv-23",
		"adv-0", "adv-12", "adv-15", "adv-18", "adv-21",
	},
}

// goldenKG is a small seeded CTI graph with the labels and edge types of
// the ledger's kg-100k, plus :Advisory nodes whose every third
// `published` is missing and :Weird nodes whose strings need every kind
// of JSON escaping.
func goldenKG() *graph.Store {
	rng := rand.New(rand.NewSource(42))
	s := graph.New()
	mk := func(label, prefix string, n int, attrs func(i int) map[string]string) []graph.NodeID {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			var a map[string]string
			if attrs != nil {
				a = attrs(i)
			}
			ids[i], _ = s.MergeNode(label, fmt.Sprintf("%s-%d", prefix, i), a)
		}
		return ids
	}
	vendors := mk("CTIVendor", "vendor", 6, nil)
	tools := mk("Tool", "tool", 8, nil)
	actors := mk("ThreatActor", "actor", 5, nil)
	malware := mk("Malware", "mw", 40, func(int) map[string]string {
		return map[string]string{"family": fmt.Sprintf("tool-%d", rng.Intn(len(tools)))}
	})
	var iocs []graph.NodeID
	for i := 0; i < 120; i++ {
		id, _ := s.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", i/16, i%16), map[string]string{"first_seen": "2021"})
		iocs = append(iocs, id)
	}
	iocs = append(iocs, mk("Domain", "c2", 60, func(i int) map[string]string {
		return map[string]string{"first_seen": fmt.Sprintf("20%02d", 18+i%5)}
	})...)
	reports := mk("MalwareReport", "report", 200, func(int) map[string]string {
		return map[string]string{"published": fmt.Sprintf("2021-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))}
	})
	for _, r := range reports {
		s.AddEdge(r, "REPORTED_BY", vendors[rng.Intn(len(vendors))], nil)
		s.AddEdge(r, "DESCRIBES", malware[rng.Intn(len(malware))], nil)
		for k := 0; k < 4; k++ {
			s.AddEdge(r, "MENTIONS", iocs[rng.Intn(len(iocs))], nil)
		}
	}
	for rank, m := range malware {
		for k := 0; k < 2+40/(1+rank); k++ {
			s.AddEdge(m, "CONNECT", iocs[rng.Intn(len(iocs))], nil)
		}
	}
	for i, a := range actors {
		s.AddEdge(a, "USE", tools[i], nil)
		s.AddEdge(a, "USE", tools[(i+3)%len(tools)], nil)
	}
	mk("Advisory", "adv", 30, func(i int) map[string]string {
		if i%3 == 0 {
			return nil
		}
		return map[string]string{"published": fmt.Sprintf("2022-%02d", 1+i%12)}
	})
	for i, note := range []string{
		`plain`, `quote " and backslash \`, "tab\tnewline\ncr\r", "bell\x07 form\f back\b",
		`<script>alert(1)&amp;</script>`, "line\u2028sep para\u2029sep", "bad\xffutf8\xc0", "snow ☃ 漢字 \U0001F600", "del\x7f",
	} {
		s.MergeNode("Weird", fmt.Sprintf("weird-%d %s", i, note), map[string]string{"note": note})
	}
	return s
}

type goldenCase struct {
	name    string
	query   string
	params  map[string]any
	analyze bool // also pin EXPLAIN ANALYZE's per-operator counts
}

var goldenCases = []goldenCase{
	// The ledger's five hunt-scan classes (bench/requests.go).
	{"agg", `match (r:MalwareReport)-[:REPORTED_BY]->(v:CTIVendor) return v.name, count(*) as n order by n desc, v.name limit 10`, nil, true},
	{"varlen", `match (m:Malware {name:$mw})-[:CONNECT*1..2]-(host) optional match (host)<-[:MENTIONS]-(r) with host, collect(r.name) as reports where host.name starts with "10." return host.name, reports order by host.name limit 10`, map[string]any{"mw": "mw-0"}, true},
	{"join", `match (m:Malware), (t:Tool) where m.family = t.name return t.name, count(*) as n order by n desc, t.name limit 10`, nil, true},
	{"topk", `match (r:MalwareReport) return r.name order by r.published desc, r.name limit 10`, nil, true},
	{"stream", `match (d:Domain) return d.name, d.first_seen`, nil, true},
	// Its point classes.
	{"seek", `match (n {name:$ioc}) return n`, map[string]any{"ioc": "10.0.1.3"}, false},
	{"hop1", `match (i {name:$ioc})<-[:CONNECT]-(m:Malware) return m.name`, map[string]any{"ioc": "10.0.1.3"}, false},
	{"hop2", `match (r:MalwareReport)-[:DESCRIBES]->(m:Malware {name:$mw})-[:CONNECT]->(i:IP) return r.name, i.name limit 50`, map[string]any{"mw": "mw-1"}, false},
	{"literal", `match (n {name:"c2-7"}) return n`, nil, false},
	// The row operators the change rewrote, and the escaper.
	{"distinct-skip", `match (m:Malware)-[:CONNECT]->(i:IP) return distinct i.name order by i.name skip 3 limit 7`, nil, false},
	{"sort-all-desc", `match (t:Tool) return t.name order by t.name desc`, nil, false},
	{"hidden-key-ties", `match (d:Domain) return d.name order by d.first_seen limit 12`, nil, false},
	{"group-minmax", `match (m:Malware)-[:CONNECT]->(i) return m.name, count(i) as c, min(i.name), max(i.name) order by c desc, m.name limit 5`, nil, false},
	{"group-by-node", `match (a:ThreatActor)-[:USE]->(t) return a, collect(t.name), count(*)`, nil, false},
	{"optional-nulls", `match (t:Tool) optional match (t)<-[:USE]-(a:ThreatActor) return t.name, a.name`, nil, false},
	{"with-distinct", `match (r:MalwareReport)-[:MENTIONS]->(i:IP) with distinct i return i.name limit 25`, nil, false},
	{"escapes", `match (x:Weird) return x.name, x.note`, nil, false},
	{"numbers", `match (m:Malware {name:"mw-0"})-[:CONNECT]->(i) return id(m), count(*), sum(id(i))`, nil, false},
	// Null ORDER BY keys: checked against orderByTotalOrder, not the file.
	{"topk-nulls", `match (a:Advisory) return a.name order by a.published desc limit 5`, nil, false},
	{"topk-nulls-asc", `match (a:Advisory) return a.name, a.published order by a.published, a.name limit 25`, nil, false},
}

var analyzeTimes = regexp.MustCompile(`time=[^ \]"]+`)

// goldenBodies produces every pinned body from this build.
func goldenBodies(t *testing.T) map[string]string {
	t.Helper()
	s := NewWith(goldenKG(), search.NewIndex(nil), cypher.DefaultOptions())
	post := func(payload map[string]any) string {
		body, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%v: status %d: %s", payload["query"], rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	out := map[string]string{}
	for _, c := range goldenCases {
		req := map[string]any{"query": c.query}
		if c.params != nil {
			req["params"] = c.params
		}
		out[c.name+"/materialized"] = post(req)
		req["stream"] = true
		out[c.name+"/stream"] = post(req)
		if c.analyze {
			delete(req, "stream")
			req["query"] = "explain analyze " + c.query
			out[c.name+"/analyze-counts"] = analyzeTimes.ReplaceAllString(post(req), "time=T")
		}
	}
	return out
}

func TestGoldenResponseBodies(t *testing.T) {
	got := goldenBodies(t)
	for name, want := range orderByTotalOrder {
		var res struct{ Rows [][]string }
		if err := json.Unmarshal([]byte(got[name+"/materialized"]), &res); err != nil {
			t.Fatal(err)
		}
		var first []string
		for _, row := range res.Rows {
			first = append(first, row[0])
		}
		if !reflect.DeepEqual(first, want) {
			t.Errorf("%s: order\n got: %v\nwant: %v", name, first, want)
		}
		var streamed [][]string
		for _, ln := range strings.Split(got[name+"/stream"], "\n") {
			var line struct{ Row []string }
			if json.Unmarshal([]byte(ln), &line) == nil && line.Row != nil {
				streamed = append(streamed, line.Row)
			}
		}
		if !reflect.DeepEqual(streamed, res.Rows) {
			t.Errorf("%s: streamed rows %v, materialized %v", name, streamed, res.Rows)
		}
		delete(got, name+"/materialized")
		delete(got, name+"/stream")
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: response bytes changed\n got: %q\nwant: %q", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d bodies produced, %d pinned: regenerate the golden file for new cases", len(got), len(want))
	}
}
