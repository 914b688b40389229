package main

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
	"securitykg/internal/server"
)

// timeEach calls fn(i) n times and returns the median call in µs.
func timeEach(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}

// spanDurations groups span durations (µs) by the class suffix of names
// starting with prefix, and pairs each with its parent's duration.
func spanDurations(spans []span, prefix string) (byClass map[string][]float64, overParent map[string][]float64) {
	byClass, overParent = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		class, ok := strings.CutPrefix(s.Name, prefix)
		if !ok {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		byClass[class] = append(byClass[class], d)
		if s.Parent > 0 {
			p := spans[s.Parent-1]
			overParent[class] = append(overParent[class], float64(p.End-p.Start)/1e3-d)
		}
	}
	return
}

var actRe = regexp.MustCompile(` act=(\d+)`)

// cypherReplay is what replaying one class's statements at each public
// entry point of the engine gave, in µs per statement.
type cypherReplay struct{ parse, plan, exec, query float64 }

// replayCypher issues the class's sampled statements at cypher.Parse,
// Engine.Prepare (on a text the plan cache has not seen, so it plans),
// Stmt.Query and Engine.Query. The differences between neighbouring
// entry points are the self times no seam exposes.
func replayCypher(eng *cypher.Engine, m *kgModel, reqs []*request) (cypherReplay, error) {
	var out cypherReplay
	var err error
	text := func(i int) (string, map[string]any) { return cypherText(m, reqs[i%len(reqs)]) }
	n := len(reqs)
	if out.parse, err = timeEach(n, func(i int) error {
		q, _ := text(i)
		_, err := cypher.Parse(q)
		return err
	}); err != nil {
		return out, err
	}
	prep, err := timeEach(n, func(i int) error {
		q, _ := text(i)
		// Trailing blanks make a text the cache has not seen without
		// changing the statement.
		_, err := eng.Prepare(q + strings.Repeat(" ", 1+i%97) + "\n" + strings.Repeat(" ", i/97))
		return err
	})
	if err != nil {
		return out, err
	}
	out.plan = max(prep-out.parse, 0)
	stmts := make([]*cypher.Stmt, n)
	for i := range stmts {
		q, _ := text(i)
		if stmts[i], err = eng.Prepare(q); err != nil {
			return out, err
		}
	}
	if out.exec, err = timeEach(n, func(i int) error {
		_, params := text(i)
		_, err := stmts[i].Query(params)
		return err
	}); err != nil {
		return out, err
	}
	if out.query, err = timeEach(n, func(i int) error {
		q, params := text(i)
		_, err := eng.Query(q, params)
		return err
	}); err != nil {
		return out, err
	}
	return out, nil
}

// readLayers fills the server, cypher, search, layout and graph numbers
// for the read classes a traced drive issued, and adds their time to
// layer. It is shared by the hunt workloads and ingest-under-hunt's
// hunter. client is which client's seeded sequence to replay.
func readLayers(st *graph.Store, ix *search.Index, model *kgModel, seed int64, client int, scan bool,
	traced *driveStats, tr *tracer, m metricSet, layer map[string]float64) error {
	handler, overhead := spanDurations(tr.spans, "server.handler.")
	var allOverhead []float64
	for c, ds := range handler {
		if unitOf("server.handler_us."+c) != "" { // the follower's read-back is not a catalogued class
			m.set("server.handler_us."+c, median(ds))
		}
		allOverhead = append(allOverhead, overhead[c]...)
	}
	m.set("server.client_overhead_us", median(allOverhead))
	m.set("server.bytes_out_per_s", float64(traced.bytesOut)/traced.wall.Seconds())
	m.set("server.http_429", float64(traced.http429))
	m.set("server.http_5xx", float64(traced.http5xx))
	if lookups := traced.planHits + traced.planMisses; lookups > 0 {
		m.set("cypher.plan_cache_hit_ratio", float64(traced.planHits)/float64(lookups))
	}

	// The same seeded sequence the client sent, grouped by class.
	perClass := 200
	if scan {
		perClass = 3
	}
	byClass := map[string][]*request{}
	g := newReqGen(model, seed, client, scan)
	for i := 0; i < 40*perClass; i++ {
		if r := g.next(); len(byClass[r.class]) < perClass {
			byClass[r.class] = append(byClass[r.class], r)
		}
	}
	opts := cypher.DefaultOptions()
	opts.ReadOnly = true
	eng := cypher.NewEngine(st, opts)

	// Time is booked by sums, not medians: a class's summed handler time
	// is split between layers in the proportions its replay medians give,
	// so a heavy tail (a stalled write, a hub) is not lost.
	for c, reqs := range byClass {
		layer["client"] += sum(overhead[c])
		hus, total := median(handler[c]), sum(handler[c])
		if hus == 0 {
			continue
		}
		book := func(name string, us float64) { layer[name] += total * min(us/hus, 1) }
		switch c {
		case "search":
			us, err := timeEach(len(reqs), func(i int) error {
				ix.Search(model.malware[reqs[i].key], searchTopK)
				return nil
			})
			if err != nil {
				return err
			}
			m.set("search.query_us", us)
			m.set("server.self_us.search", max(hus-us, 0))
			book("search", us)
			book("server", max(hus-us, 0))
		case "expand":
			var layoutUs []float64
			us, err := timeEach(len(reqs), func(i int) error {
				id := model.malwareID[reqs[i].key]
				sg := st.ExpandFrom([]graph.NodeID{id}, 1, expandNeighbors, 100)
				t0 := time.Now()
				server.Layout(sg, int64(id))
				layoutUs = append(layoutUs, float64(time.Since(t0))/1e3)
				return nil
			})
			if err != nil {
				return err
			}
			lus := median(layoutUs)
			m.set("layout.us_per_expand", lus)
			m.set("server.self_us.expand", max(hus-us, 0))
			book("layout", lus)
			book("graph", us-lus)
			book("server", max(hus-us, 0))
		default:
			rp, err := replayCypher(eng, model, reqs)
			if err != nil {
				return fmt.Errorf("replay %s: %w", c, err)
			}
			m.set("cypher.parse_us."+c, rp.parse)
			m.set("cypher.plan_us."+c, rp.plan)
			m.set("cypher.exec_us."+c, rp.exec)
			m.set("server.self_us."+c, max(hus-rp.query, 0))
			book("server", max(hus-rp.query, 0))
			// A parameterized text is planned once and then served from the
			// plan cache; only the literal class parses and plans per request.
			if c == "literal" {
				book("cypher.parse", rp.parse)
				book("cypher.plan", rp.plan)
				book("cypher.exec", max(min(rp.query, hus)-rp.parse-rp.plan, 0))
			} else {
				book("cypher.exec", min(rp.query, hus))
			}
			if scan {
				q, params := cypherText(model, reqs[0])
				res, plan, err := eng.QueryAnalyze(q, params)
				if err != nil {
					return fmt.Errorf("analyze %s: %w", c, err)
				}
				in := 0
				for _, sm := range actRe.FindAllStringSubmatch(plan, -1) {
					v, _ := strconv.Atoi(sm[1])
					in += v
				}
				m.set("cypher.rows_in_per_row_out."+c, float64(in)/float64(max(len(res.Rows), 1)))
			}
		}
	}
	return nil
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// snapshotPairUs times Store.Snapshot + Snap.Release on a quiet store.
func snapshotPairUs(st *graph.Store) float64 {
	const pairs = 20000
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		st.Snapshot().Release()
	}
	return float64(time.Since(t0)) / 1e3 / pairs
}

func (h *hunt) layers(traced *driveStats, tr *tracer, m metricSet) (string, error) {
	layer := map[string]float64{} // µs attributed to each layer over the traced run
	// Both clients draw from the same mix, so client 0's sequence stands
	// for each class; traced.perClass counts both clients' requests.
	if err := readLayers(h.store, h.index, h.model, h.seed, 0, h.scan, traced, tr, m, layer); err != nil {
		return "", err
	}
	m.set("graph.heap_bytes_per_node", float64(liveHeap())/float64(h.model.nodes)) // the whole process: store, indexes, search index
	m.set("graph.snapshot_pair_us", snapshotPairUs(h.store))
	addHarness(layer, tr, traced.wall*clients)
	return reportLayerShares(layer, traced.wall*clients, m, tr), nil
}

// addHarness books the time the clients spent outside any request —
// drawing the next request, checking the last answer — to the harness.
func addHarness(layer map[string]float64, tr *tracer, avail time.Duration) {
	inRequests := 0.0
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "client.request.") {
			inRequests += float64(s.End-s.Start) / 1e3
		}
	}
	layer["harness"] += max(float64(avail)/1e3-inRequests, 0)
}

// reportLayerShares turns per-layer µs into shares of the time the
// traced run had to spend (wall time × the clients or cores that spend
// it): trace.accounted_share is their sum, the split goes into the
// trace file's counts as parts per million, and the returned string
// lists it largest first.
func reportLayerShares(layer map[string]float64, avail time.Duration, m metricSet, tr *tracer) string {
	total := 0.0
	for _, us := range layer {
		total += us
	}
	availUs := float64(avail) / 1e3
	m.set("trace.accounted_share", total/availUs)
	names := slices.Sorted(maps.Keys(layer))
	sort.SliceStable(names, func(i, j int) bool { return layer[names[i]] > layer[names[j]] })
	var parts []string
	tr.mu.Lock()
	for _, n := range names {
		tr.counts["layer_share_ppm."+n] = int64(layer[n] / availUs * 1e6)
		parts = append(parts, fmt.Sprintf("%s=%.3f", n, layer[n]/availUs))
	}
	tr.mu.Unlock()
	return strings.Join(parts, " ")
}
