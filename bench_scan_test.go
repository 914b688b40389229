package securitykg

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/server"
)

// scanKG is a CTI-shaped graph with the label counts and fan-outs of the
// ledger's kg-100k (bench/kg.go): 30 000 dated reports each filed by one
// of 40 vendors and mentioning six IOCs, 4 000 malware with a family
// attribute naming one of 200 tools and hub-skewed CONNECT edges onto
// 35 000 IPs and 20 000 domains. The heavy-read arms below run the
// ledger's five hunt-scan statements over it.
func scanKG() *graph.Store { return buildScanKG(func() {}) }

// buildScanKG is scanKG with a call between the last node and the first
// edge, where BenchmarkResidentGraph reads the heap.
func buildScanKG(nodesDone func()) *graph.Store {
	rng := rand.New(rand.NewSource(1))
	s := graph.New()
	s.BeginBulk()
	defer s.EndBulk()
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
	vendors := mk("CTIVendor", "vendor", 40, nil)
	tools := mk("Tool", "tool", 200, nil)
	malware := mk("Malware", "mw", 4000, func(int) map[string]string {
		return map[string]string{"family": fmt.Sprintf("tool-%d", rng.Intn(len(tools)))}
	})
	var iocs []graph.NodeID
	for i := 0; i < 35000; i++ {
		id, _ := s.MergeNode("IP", fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&255, i&255), map[string]string{"first_seen": "2021"})
		iocs = append(iocs, id)
	}
	iocs = append(iocs, mk("Domain", "c2", 20000, func(i int) map[string]string {
		return map[string]string{"first_seen": "2021"}
	})...)
	rng.Shuffle(len(iocs), func(i, j int) { iocs[i], iocs[j] = iocs[j], iocs[i] })
	iocZ := rand.NewZipf(rng, 1.1, 50, uint64(len(iocs)-1))
	reports := mk("MalwareReport", "report", 30000, func(int) map[string]string {
		return map[string]string{"published": fmt.Sprintf("2021-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))}
	})
	nodesDone()
	for _, r := range reports {
		s.AddEdge(r, "REPORTED_BY", vendors[rng.Intn(len(vendors))], nil)
		for k := 0; k < 6; k++ {
			s.AddEdge(r, "MENTIONS", iocs[iocZ.Uint64()], nil)
		}
	}
	for rank, m := range malware {
		deg := 2 + 6000/(50+rank) // hubs near rank 0, a long tail of 2-3
		for k := 0; k < deg; k++ {
			s.AddEdge(m, "CONNECT", iocs[iocZ.Uint64()], nil)
		}
	}
	return s
}

// residentGraph keeps BenchmarkResidentGraph's last store reachable, so
// the heap profile `make bench-heap` writes when the run ends shows the
// graph as in-use space.
var residentGraph *graph.Store

// BenchmarkResidentGraph prices keeping the graph in memory: the live
// heap the scanKG nodes hold (records, attributes, label and name
// indexes) per node, and what the edges add (records, dedup index,
// packed adjacency) per edge, each read after a forced GC.
func BenchmarkResidentGraph(b *testing.B) {
	live := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	for i := 0; i < b.N; i++ {
		residentGraph = nil
		empty := live()
		var nodes float64
		residentGraph = buildScanKG(func() { nodes = live() })
		st := residentGraph.Stats()
		b.ReportMetric((nodes-empty)/float64(st.Nodes), "B/node")
		b.ReportMetric((live()-nodes)/float64(st.Edges), "B/edge")
	}
}

// BenchmarkCypherScanClasses prices the ledger's hunt-scan classes one by
// one with warm cached plans: the four materialized ones through
// Engine.Query (execution only), the 20 000-row NDJSON stream through a
// real HTTP server (execution + encoding + socket). A query runs on one
// goroutine, but the garbage collector's workers (and, for stream-http,
// the server and client goroutines) run beside it, so GOMAXPROCS is
// reported with every arm: readings compare only at the same count.
func BenchmarkCypherScanClasses(b *testing.B) {
	s := scanKG()
	procs := float64(runtime.GOMAXPROCS(0))
	eng := cypher.NewEngine(s, cypher.DefaultOptions())
	for _, c := range []struct {
		name, q string
		args    map[string]any
	}{
		{"agg", `match (r:MalwareReport)-[:REPORTED_BY]->(v:CTIVendor) return v.name, count(*) as n order by n desc, v.name limit 10`, nil},
		{"varlen", `match (m:Malware {name:$mw})-[:CONNECT*1..2]-(host) optional match (host)<-[:MENTIONS]-(r) with host, collect(r.name) as reports where host.name starts with "10." return host.name, reports order by host.name limit 10`, map[string]any{"mw": "mw-3"}},
		{"join", `match (m:Malware), (t:Tool) where m.family = t.name return t.name, count(*) as n order by n desc, t.name limit 10`, nil},
		{"topk", `match (r:MalwareReport) return r.name order by r.published desc, r.name limit 10`, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(c.q, c.args)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 10 {
					b.Fatalf("rows = %d, want 10", len(res.Rows))
				}
			}
			b.ReportMetric(procs, "gomaxprocs")
		})
	}
	b.Run("stream-http", func(b *testing.B) {
		ts := httptest.NewServer(server.NewWith(s, nil, cypher.DefaultOptions()))
		defer ts.Close()
		body := []byte(`{"query":"match (d:Domain) return d.name, d.first_seen","stream":true}`)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/api/cypher", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || n < 20000*20 {
				b.Fatalf("streamed %d bytes, err %v", n, err)
			}
		}
		b.ReportMetric(procs, "gomaxprocs")
	})
}
