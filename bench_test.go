package securitykg

// One testing.B benchmark per experiment in cmd/skg-bench's index (its
// defs table, E1 onwards): CI-scale versions of the tables that command
// regenerates. `make bench` records the engine arms in BENCH_cypher.json;
// the end-to-end ledger is bench/ (bench/README.md).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"securitykg/internal/config"
	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/cypher"
	"securitykg/internal/experiments"
	"securitykg/internal/fusion"
	"securitykg/internal/graph"
	"securitykg/internal/ioc"
	"securitykg/internal/layout"
	"securitykg/internal/ner"
	"securitykg/internal/search"
	"securitykg/internal/sources"
	"securitykg/internal/storage"
)

// --- E1: crawler throughput ---

func BenchmarkCrawlerThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			specs := sources.DefaultSources(10)
			reports := 0
			for i := 0; i < b.N; i++ {
				web := sources.NewWeb(int64(i), specs)
				fw := crawler.New(web, specs, crawler.Config{Workers: workers})
				var mu sync.Mutex
				fw.RunOnce(context.Background(), func(ctirep.RawFile) {
					mu.Lock()
					reports++
					mu.Unlock()
				})
			}
			b.ReportMetric(float64(reports)/b.Elapsed().Minutes(), "reports/min")
		})
	}
}

// --- E2: end-to-end ingest at corpus scale (CI-sized) ---

// BenchmarkEndToEndIngest times Collect on a fresh system per iteration:
// crawl, pipeline and connectors. One extractor, trained before the
// loop, serves every iteration's system, so a CPU profile of the
// benchmark (make profile-ingest) samples one training, not one a run.
func BenchmarkEndToEndIngest(b *testing.B) {
	first, err := New(Options{ReportsPerSource: 4, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	ext, err := first.trainNER()
	if err != nil {
		b.Fatal(err)
	}
	reports := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := New(Options{ReportsPerSource: 4, Seed: int64(i + 2)})
		if err != nil {
			b.Fatal(err)
		}
		sys.extractor = ext
		b.StartTimer()
		st, err := sys.Collect(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		reports += st.Process.Connected
	}
	b.ReportMetric(float64(reports)/b.Elapsed().Minutes(), "reports/min")
}

// --- E3: pipeline worker scaling ---

// BenchmarkPipelineWorkers times Pipeline.Run alone. The extractor is
// trained and the sources crawled once, before any arm; every iteration
// runs the same files into a fresh store with the arm's extract workers
// and hand-off.
func BenchmarkPipelineWorkers(b *testing.B) {
	cfg := config.Default()
	cfg.Seed = 3
	cfg.ReportsPerSource = 4
	cfg.NER.TrainDocs = 32
	cfg.NER.Epochs = 3
	for _, spec := range sources.DefaultSources(4)[:8] {
		cfg.Sources = append(cfg.Sources, spec.Slug)
	}
	sys, err := New(Options{Config: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	var files []ctirep.RawFile
	if err := sys.frame.RunOnce(context.Background(), func(rf ctirep.RawFile) {
		mu.Lock()
		files = append(files, rf)
		mu.Unlock()
	}); err != nil {
		b.Fatal(err)
	}
	// The first pipeline trains the extractor; every later one reuses it.
	if _, err := sys.buildPipeline(); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, serialize := range []bool{false, true} {
			b.Run(fmt.Sprintf("workers=%d/serialize=%v", workers, serialize), func(b *testing.B) {
				sys.cfg.Pipeline.ExtractWorkers = workers
				sys.cfg.Pipeline.Serialize = serialize
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sys.AdoptStore(graph.New())
					sys.Index = search.NewIndex(nil)
					p, err := sys.buildPipeline()
					if err != nil {
						b.Fatal(err)
					}
					in := make(chan ctirep.RawFile, len(files))
					for _, f := range files {
						in <- f
					}
					close(in)
					b.StartTimer()
					if _, err := p.Run(context.Background(), in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E4: NER extraction speed (quality is measured by skg-bench -exp ner) ---

func BenchmarkNERExtract(b *testing.B) {
	ext, err := experiments.TrainNER(1, 80)
	if err != nil {
		b.Fatal(err)
	}
	web := sources.NewWeb(1, sources.DefaultSources(10))
	text := strings.Join(web.GenerateTruth(web.Sources()[0], 1).Paragraphs, "\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Extract(text)
	}
}

func BenchmarkNERBaselineExtract(b *testing.B) {
	base := ner.NewBaseline()
	web := sources.NewWeb(1, sources.DefaultSources(10))
	text := strings.Join(web.GenerateTruth(web.Sources()[0], 1).Paragraphs, "\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Extract(text)
	}
}

// --- E5: IOC protection overhead ---

func BenchmarkIOCProtection(b *testing.B) {
	web := sources.NewWeb(1, sources.DefaultSources(10))
	text := strings.Join(web.GenerateTruth(web.Sources()[0], 2).Paragraphs, "\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ioc.Protect(text)
		p.Restore(p.Protected)
	}
}

// --- E6: label synthesis strategies (training cost) ---

func BenchmarkLabelSynthesisTraining(b *testing.B) {
	web := sources.NewWeb(1, sources.DefaultSources(5))
	var texts []string
	for _, spec := range web.Sources()[:10] {
		for i := 0; i < 3; i++ {
			texts = append(texts, strings.Join(web.GenerateTruth(spec, i).Paragraphs, "\n"))
		}
	}
	for _, strat := range []ner.LabelingStrategy{ner.StrategyLabelModel, ner.StrategyMajority} {
		b.Run(string(strat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ner.Train(texts, ner.TrainOptions{Strategy: strat, Epochs: 2, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: relation extraction speed ---

func BenchmarkRelationExtract(b *testing.B) {
	ext, err := experiments.TrainNER(1, 80)
	if err != nil {
		b.Fatal(err)
	}
	web := sources.NewWeb(1, sources.DefaultSources(10))
	text := strings.Join(web.GenerateTruth(web.Sources()[0], 3).Paragraphs, "\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.ExtractRelations(text)
	}
}

// --- E8: fusion pass ---

func BenchmarkFusionPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := graph.New()
		for m := 0; m < 500; m++ {
			name := fmt.Sprintf("Mal%d", m/3)
			switch m % 3 {
			case 1:
				name = "W32/" + name
			case 2:
				name = strings.ToUpper(name)
			}
			id, _ := s.MergeNode("Malware", name, nil)
			ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", m/250, m%250), nil)
			s.AddEdge(id, "CONNECT", ip, nil)
		}
		b.StartTimer()
		if _, err := fusion.Fuse(s, fusion.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: graph merge path (ontology-shaped inserts) ---

func BenchmarkGraphMergeNode(b *testing.B) {
	s := graph.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MergeNode("Malware", fmt.Sprintf("m%d", i%10000), nil)
	}
}

// --- E10: keyword search ---

func BenchmarkKeywordSearch(b *testing.B) {
	idx := search.NewIndex(map[string]float64{"title": 2})
	web := sources.NewWeb(1, sources.DefaultSources(40))
	n := 0
	for _, spec := range web.Sources() {
		for i := 0; i < spec.Reports && n < 1000; i++ {
			truth := web.GenerateTruth(spec, i)
			idx.Add(search.Document{ID: fmt.Sprintf("%s-%d", spec.Slug, i),
				Fields: map[string]string{"title": truth.Title,
					"body": strings.Join(truth.Paragraphs, "\n")}})
			n++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search("wannacry ransomware", 10)
	}
}

// --- E11: cypher queries, index on/off ---

func BenchmarkCypherQuery(b *testing.B) {
	s := graph.New()
	for i := 0; i < 20000; i++ {
		id, _ := s.MergeNode("Malware", fmt.Sprintf("malware-%d", i), nil)
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.%d.%d.%d", i%200, (i/200)%200, i%250), nil)
		s.AddEdge(id, "CONNECT", ip, nil)
	}
	q := `match (n) where n.name = "malware-5000" return n`
	for _, useIdx := range []bool{true, false} {
		b.Run(fmt.Sprintf("index=%v", useIdx), func(b *testing.B) {
			eng := cypher.NewEngine(s, cypher.Options{UseIndexes: useIdx})
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- the 20k-node KG the engine benchmarks below share ---

// benchKG is a 20k-node KG with malware hubs and IP fan-out, shared by
// the engine benchmarks.
func benchKG() *graph.Store {
	s := graph.New()
	for i := 0; i < 10000; i++ {
		id, _ := s.MergeNode("Malware", fmt.Sprintf("malware-%d", i), nil)
		for k := 0; k < 2; k++ {
			ip, _ := s.MergeNode("IP", fmt.Sprintf("10.%d.%d.%d", i%200, (i/200)%200, k), nil)
			s.AddEdge(id, "CONNECT", ip, nil)
		}
	}
	return s
}

// --- E16: variable-length path traversal (threat-hunt shape) ---

// BenchmarkCypherVarLengthPath measures the bounded-BFS VarExpand
// operator on the hunt-style query "what is within k undirected hops of
// this malware" over the 20k-node KG, where the shared-IP structure
// makes each extra hop fan out across neighboring malware. The collect
// arm also exercises WITH + collect.
func BenchmarkCypherVarLengthPath(b *testing.B) {
	s := benchKG()
	queries := []struct {
		name string
		q    string
	}{
		{"1..2-hop", `match (m {name: "malware-5000"})-[:CONNECT*1..2]-(x) return count(*)`},
		{"1..3-hop", `match (m {name: "malware-5000"})-[:CONNECT*1..3]-(x) return count(*)`},
		{"collect-2-hop", `match (m {name: "malware-5000"})-[:CONNECT*1..2]-(x) with m, collect(x.name) as reach return m.name, reach`},
	}
	for _, q := range queries {
		b.Run(q.name+"/planned", func(b *testing.B) {
			eng := cypher.NewEngine(s, cypher.Options{UseIndexes: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q.q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E17: prepared statements vs per-query parse+plan ---

// BenchmarkCypherPreparedVsParse measures the per-query overhead the
// driver-grade API removes. "prepared" executes one Stmt with a
// rotating $name binding (one parse+plan ever; every run binds params
// and hits the shared plan cache), "parse-literal" re-submits a
// literal-substituted query string per run — the pre-parameter call
// pattern — so every run misses the plan cache and pays
// lex+parse+plan+store again. Both arms use the hunt-shaped statement
// interactive threat-hunting issues per indicator, and both bind
// indicators absent from the graph: the point seek misses, so the
// shared execution work is near zero and the spread between the arms
// is the per-query overhead itself. "prepared-hit" is the same
// statement with matching bindings, for the end-to-end number.
func BenchmarkCypherPreparedVsParse(b *testing.B) {
	s := benchKG()
	paramQ := `match (m:Malware {name: $name})-[:CONNECT]->(ip)` +
		` where ip.name starts with "10." and not ip.name ends with ".zz" and m.name contains "malware"` +
		` return m.name as malware, ip.name as address limit 5`
	litQ := `match (m:Malware {name: "absent-%d"})-[:CONNECT]->(ip)` +
		` where ip.name starts with "10." and not ip.name ends with ".zz" and m.name contains "malware"` +
		` return m.name as malware, ip.name as address limit 5`
	b.Run("prepared", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		stmt, err := eng.Prepare(paramQ)
		if err != nil {
			b.Fatal(err)
		}
		args := map[string]any{"name": ""}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args["name"] = fmt.Sprintf("absent-%d", i%10000)
			if _, err := stmt.Query(args); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse-literal", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(fmt.Sprintf(litQ, i%10000), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-hit", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		stmt, err := eng.Prepare(paramQ)
		if err != nil {
			b.Fatal(err)
		}
		args := map[string]any{"name": ""}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args["name"] = fmt.Sprintf("malware-%d", i%10000)
			if _, err := stmt.Query(args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E18: streaming cursor vs materialized results ---

// BenchmarkCypherRowsStreaming measures the Rows cursor against full
// materialization on a 20k-row scan: "rows-first10" drains ten rows and
// stops with a sentinel error (the interactive-hunting shape — upstream
// matching stops at the tenth row), "materialize-all" drains the same
// query through Query.
func BenchmarkCypherRowsStreaming(b *testing.B) {
	s := benchKG()
	q := `match (m:Malware)-[:CONNECT]->(ip) return m.name, ip.name`
	b.Run("rows-first10", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := eng.QueryRows(q, nil)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			err = rows.Drain(func([]cypher.Value) error {
				if n++; n == 10 {
					return errTenRows
				}
				return nil
			})
			if err != errTenRows {
				b.Fatalf("drain ended with %v, want the stop after ten rows", err)
			}
		}
	})
	b.Run("materialize-all", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// errTenRows stops BenchmarkCypherRowsStreaming's rows-first10 drain.
var errTenRows = errors.New("ten rows read")

// --- E19: join strategies (PR 5) ---

// BenchmarkCypherHashJoinVsNestedLoop measures the cross-chain equality
// join: two 400-node label scans linked only by a.name = b.name. The
// engine hashes the cheaper side, one pass over each scan where a nested
// loop would re-enumerate the second chain for every row of the first
// (160k pairs per execution).
func BenchmarkCypherHashJoinVsNestedLoop(b *testing.B) {
	s := graph.New()
	for i := 0; i < 400; i++ {
		s.MergeNode("Src", fmt.Sprintf("k%d", i), nil)
		s.MergeNode("Dst", fmt.Sprintf("k%d", i+100), nil)
	}
	q := `match (a:Src), (b:Dst) where a.name = b.name return count(*)`
	b.Run("hash-join", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.Options{UseIndexes: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Query(q, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Rows[0][0].Num != 300 {
				b.Fatalf("join count = %v, want 300", res.Rows[0][0].Num)
			}
		}
	})
}

// BenchmarkCypherBiExpand measures a 4-hop symmetric chain with both
// endpoints pinned on a dense 20-node clique: BiExpand collapses walk
// multiplicities level by level (counted frontier expansion, ~20 map
// entries per level) where one-sided enumeration would walk all 19^3 ≈
// 6.9k complete walks (and visit 19^4 ≈ 130k edges) per execution.
func BenchmarkCypherBiExpand(b *testing.B) {
	s := graph.New()
	ids := make([]graph.NodeID, 20)
	for i := range ids {
		ids[i], _ = s.MergeNode("H", fmt.Sprintf("h%d", i), nil)
	}
	for i := range ids {
		for j := range ids {
			if i != j {
				s.AddEdge(ids[i], "R", ids[j], nil)
			}
		}
	}
	q := `match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`
	b.Run("bi-expand", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.Options{UseIndexes: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E12: layout, Barnes-Hut vs exact ---

func BenchmarkLayoutBarnesHut(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchLayoutSteps(b, benchLayoutGraph(n), layout.Config{Theta: 0.5})
		})
	}
}

func BenchmarkLayoutExact(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchLayoutSteps(b, benchLayoutGraph(n), layout.Config{Exact: true})
		})
	}
}

// benchLayoutSteps times one Step per op. The engine is replaced, off the
// clock, every 300 steps (one Run's budget): the temperature decays by
// the cooling constant each step, and past ≈140 k steps on one engine it goes
// subnormal and the arm times denormal arithmetic instead of the kernel.
func benchLayoutSteps(b *testing.B, g layout.Graph, cfg layout.Config) {
	e := layout.NewEngine(g, cfg, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%300 == 0 {
			b.StopTimer()
			e = layout.NewEngine(g, cfg, 1)
			b.StartTimer()
		}
		e.Step()
	}
}

// BenchmarkLayoutRun times what one /api/expand or /api/random pays for
// its view: a fresh engine run to convergence with the server's budget,
// Run(300, 0.01), per op, cycling through 64 seeds. The exact and
// Barnes-Hut (θ = 0.5) arms at each size are what layout.exactBelow is
// set from.
func BenchmarkLayoutRun(b *testing.B) {
	for _, n := range []int{9, 26, 101, 256, 400, 1000} {
		g := benchLayoutGraph(n)
		for _, arm := range []struct {
			name string
			cfg  layout.Config
		}{{"exact", layout.Config{Exact: true}}, {"bh", layout.Config{Theta: 0.5}}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, arm.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					layout.NewEngine(g, arm.cfg, int64(i%64)).Run(300, 0.01)
				}
			})
		}
	}
}

func benchLayoutGraph(n int) layout.Graph {
	g := layout.Graph{N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{i / 2, i})
	}
	return g
}

// --- E13: exploration operations ---

func BenchmarkExpandFrom(b *testing.B) {
	s := graph.New()
	hub, _ := s.MergeNode("Malware", "hub", nil)
	for i := 0; i < 5000; i++ {
		id, _ := s.MergeNode("IP", fmt.Sprintf("ip-%d", i), nil)
		s.AddEdge(hub, "CONNECT", id, nil)
		if i%10 == 0 {
			id2, _ := s.MergeNode("Domain", fmt.Sprintf("d-%d", i), nil)
			s.AddEdge(id, "RESOLVE_TO", id2, nil)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExpandFrom([]graph.NodeID{hub}, 2, 25, 100)
	}
}

func BenchmarkRandomSubgraph(b *testing.B) {
	s := graph.New()
	var prev graph.NodeID
	for i := 0; i < 5000; i++ {
		id, _ := s.MergeNode("Malware", fmt.Sprintf("m-%d", i), nil)
		if i > 0 {
			s.AddEdge(prev, "RELATED_TO", id, nil)
		}
		prev = id
	}
	sn := s.Snapshot()
	defer sn.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.RandomSubgraph(int64(i), 50)
	}
}

// BenchmarkCypherMerge measures the write path end-to-end: a prepared
// parameterized MERGE + SET per operation (the durable server's hot
// ingest-by-query shape). merge-hit binds names that already exist;
// merge-create allocates a new node per iteration.
func BenchmarkCypherMerge(b *testing.B) {
	b.Run("merge-hit", func(b *testing.B) {
		s := benchKG()
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		stmt, err := eng.Prepare(`merge (m:Malware {name: $name}) set m.seen = "1"`)
		if err != nil {
			b.Fatal(err)
		}
		args := map[string]any{"name": ""}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args["name"] = fmt.Sprintf("malware-%d", i%10000)
			if _, err := stmt.Query(args); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge-create", func(b *testing.B) {
		s := benchKG()
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		stmt, err := eng.Prepare(`merge (m:Malware {name: $name})`)
		if err != nil {
			b.Fatal(err)
		}
		args := map[string]any{"name": ""}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args["name"] = fmt.Sprintf("fresh-%d", i)
			if _, err := stmt.Query(args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALAppend measures write-ahead log append throughput: one
// store mutation (alternating node merge / edge add) teed through the
// mutation hook into the length-prefixed CRC-checked log, under each
// fsync policy. bytes/op reflects the record framing overhead.
func BenchmarkWALAppend(b *testing.B) {
	for _, pol := range []storage.SyncPolicy{storage.SyncNever, storage.SyncInterval} {
		b.Run("fsync-"+pol.String(), func(b *testing.B) {
			db, err := storage.Open(b.TempDir(), storage.Options{Sync: pol, CompactBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			st := db.Store()
			seed, _ := st.MergeNode("Seed", "seed", nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					st.MergeNode("Malware", fmt.Sprintf("m-%d", i), map[string]string{"seen": "1"})
				} else {
					id, _ := st.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", (i/250)%250, i%250), nil)
					st.AddEdge(seed, "CONNECT", id, nil)
				}
			}
			b.StopTimer()
			b.SetBytes(db.WALSize() / int64(b.N))
		})
	}
}

// BenchmarkWALRecovery measures cold-start recovery: Open replaying a
// 20k-mutation WAL (no snapshot) into a fresh store, then the same
// directory after a checkpoint (snapshot load + empty log).
func BenchmarkWALRecovery(b *testing.B) {
	build := func(b *testing.B, checkpoint bool) string {
		dir := b.TempDir()
		db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		seed, _ := db.Store().MergeNode("Seed", "seed", nil)
		for i := 0; i < 20000; i++ {
			id, _ := db.Store().MergeNode("Malware", fmt.Sprintf("m-%d", i), map[string]string{"seen": "1"})
			db.Store().AddEdge(seed, "USE", id, nil)
		}
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		db.Close()
		return dir
	}
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{{"wal-replay-20k", false}, {"snapshot-20k", true}} {
		b.Run(tc.name, func(b *testing.B) {
			dir := build(b, tc.checkpoint)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				if db.Store().CountNodes() != 20001 {
					b.Fatalf("recovered %d nodes", db.Store().CountNodes())
				}
				db.Close()
			}
		})
	}
}

// --- E17: MVCC snapshot reads vs an exclusive global lock ---

// BenchmarkConcurrentReadersDuringWrites measures reader throughput
// while a background session commits multi-statement transactions.
// "exclusive" is the pre-MVCC discipline: a global lock serializes every
// reader behind the writer (the only way to get consistent reads when a
// write spans several mutations). "snapshot" is the MVCC engine as
// shipped: each read pins a consistent snapshot and never blocks, so
// parallel readers scale while the writer churns.
func BenchmarkConcurrentReadersDuringWrites(b *testing.B) {
	build := func() *cypher.Engine {
		s := graph.New()
		for i := 0; i < 5000; i++ {
			id, _ := s.MergeNode("Malware", fmt.Sprintf("malware-%d", i), nil)
			ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", i/250, i%250), nil)
			s.AddEdge(id, "CONNECT", ip, nil)
		}
		return cypher.NewEngine(s, cypher.Options{UseIndexes: true, MaxBytes: 16 << 20})
	}
	readQ := `match (m {name: "malware-2500"})-[:CONNECT]->(ip) return ip.name`

	run := func(b *testing.B, exclusive bool) {
		eng := build()
		var gate sync.Mutex
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if exclusive {
					gate.Lock()
				}
				if tx, err := eng.Begin(); err == nil {
					tx.Query(fmt.Sprintf(`merge (n:Churn {name: "c%d"}) set n.val = "%d"`, i%256, i), nil)
					tx.Query(fmt.Sprintf(`merge (n:Churn {name: "d%d"}) set n.val = "%d"`, i%256, i), nil)
					tx.Commit()
				}
				if exclusive {
					gate.Unlock()
				}
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if exclusive {
					gate.Lock()
				}
				_, err := eng.Query(readQ, nil)
				if exclusive {
					gate.Unlock()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	b.Run("exclusive", func(b *testing.B) { run(b, true) })
	b.Run("snapshot", func(b *testing.B) { run(b, false) })
}

// --- E20: EXPLAIN ANALYZE instrumentation overhead (PR 9) ---

// BenchmarkCypherAnalyzeOverhead measures what per-operator profiling
// costs. "analyze-off" is the ordinary prepared hot path (point seek +
// expand, plan-cache hit every run) — the instrumentation is attached
// only when a profile sink exists, so this arm must stay within noise
// of pre-instrumentation numbers. "analyze-on" runs the same statement
// through QueryAnalyze, paying the decorator and clock reads per pull,
// plus plan rendering. The spread is the price of `explain analyze`,
// paid only by queries that ask for it.
func BenchmarkCypherAnalyzeOverhead(b *testing.B) {
	s := benchKG()
	q := `match (m:Malware {name: $name})-[:CONNECT]->(ip) return ip.name`
	b.Run("analyze-off", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		stmt, err := eng.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		args := map[string]any{"name": ""}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args["name"] = fmt.Sprintf("malware-%d", i%10000)
			res, err := stmt.Query(args)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 2 {
				b.Fatalf("rows = %d, want 2", len(res.Rows))
			}
		}
	})
	b.Run("analyze-on", func(b *testing.B) {
		eng := cypher.NewEngine(s, cypher.DefaultOptions())
		args := map[string]any{"name": ""}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args["name"] = fmt.Sprintf("malware-%d", i%10000)
			res, plan, err := eng.QueryAnalyze(q, args)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 2 || plan == "" {
				b.Fatalf("rows = %d, plan %q", len(res.Rows), plan)
			}
		}
	})
}

// --- E21: planning right after a stats-version bump (PR 19) ---

// BenchmarkCypherPlanAfterStatsBump prices the first plan of a 2-hop
// after the stats version moves — each iteration creates an attribute
// index off the clock, which bumps it, then parses and plans on it — on
// two graph sizes. Every statistic the planner reads is a live count, so
// the arms must read the same few microseconds: when hop fan-out came
// from degree histograms cached per stats version, this plan walked each
// source label's nodes under the store's read lock and the larger arm
// took milliseconds.
func BenchmarkCypherPlanAfterStatsBump(b *testing.B) {
	const q = `match (a:Malware {name: $mw})-[:CONNECT]->(i:IP)<-[:CONNECT]-(o:Malware) return o.name limit 50`
	for _, arm := range []struct {
		name  string
		build func() *graph.Store
	}{
		{"kg-30k", benchKG},
		{"kg-100k", scanKG},
	} {
		b.Run(arm.name, func(b *testing.B) {
			s := arm.build()
			eng := cypher.NewEngine(s, cypher.DefaultOptions())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.IndexAttr(fmt.Sprintf("bump-%d", i))
				b.StartTimer()
				if _, err := eng.Explain(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.CountNodes()), "nodes")
		})
	}
}
