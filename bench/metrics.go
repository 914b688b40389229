package main

// The metric catalogue. BENCHMARK.json at the repository root mirrors
// these two lists (bench_test.go keeps them in step); bounds live here
// so `bench compare` needs no other input than two result files.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names are final; do not add a fifth (the run-time budget is
// sized for four).
var workloadNames = []string{"corpus-ingest", "hunt-point", "hunt-scan", "ingest-under-hunt"}

// endToEnd is what a user of the system feels. Every workload reports
// every one of them; what throughput and latency mean on each workload
// is in README.md ("What the five numbers mean on each workload"). The
// four timings are stated at the reference machine speed (calibrate.go).
// The bounds are three times the widest run-to-run spread (quartile distance
// over median, ten seeds) seen on any workload on the two-core sandbox
// the benchmark was written on, capped at the contract's 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.20},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
}

// Request classes. The first ten run through the Cypher engine; search
// and expand are the UI's other two endpoints.
var (
	pointClasses  = []string{"seek", "hop1", "hop2", "literal", "search", "expand"}
	scanClasses   = []string{"agg", "varlen", "join", "topk", "stream"}
	cypherClasses = []string{"seek", "hop1", "hop2", "literal", "agg", "varlen", "join", "topk", "stream", "write-batch"}
	serverClasses = append(append([]string(nil), cypherClasses...), "search", "expand")
)

// perLayer lists every single-layer metric, layer = package name. A
// traced run reports all of them; a layer the workload does not touch
// reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("s", "lower", "crawler.run_s", "crawler.fetch_busy_s")
	add("count", "lower", "crawler.fetches", "crawler.retries")
	add("count", "higher", "crawler.reports_collected")

	add("s", "lower", "pipeline.port_busy_s", "pipeline.check_busy_s", "pipeline.parse_busy_s",
		"pipeline.extract_entity_busy_s", "pipeline.extract_relation_busy_s", "pipeline.connect_busy_s", "pipeline.run_s")
	add("share", "lower", "pipeline.extract_util", "pipeline.connect_util")
	add("count", "higher", "pipeline.ported", "pipeline.connected")
	add("count", "lower", "pipeline.rejected", "pipeline.parse_errs", "pipeline.connect_errs")

	add("us", "lower", "ner.extract_us_per_report")
	add("count", "higher", "ner.entities_per_report", "ner.relations_per_report")
	add("s", "lower", "ner.train_s")

	add("us", "lower", "connector.connect_us_per_report")
	add("count", "lower", "connector.mutations_per_report", "connector.wal_records_per_report")

	add("us", "lower", "search.add_us_per_doc", "search.query_us")
	add("s", "lower", "fusion.fuse_s")
	add("count", "higher", "fusion.nodes_merged")

	add("us", "lower", "graph.apply_us_per_mutation", "graph.snapshot_pair_us")
	add("count", "lower", "graph.mvcc_versions_peak", "graph.stats_version_bumps")
	add("B", "lower", "graph.heap_bytes_per_node")

	add("us", "lower", "storage.append_us_per_record")
	add("B", "lower", "storage.wal_bytes_per_record", "storage.snapshot_bytes")
	add("count", "lower", "storage.fsyncs", "storage.checkpoints")
	add("s", "lower", "storage.checkpoint_s", "storage.recover_snapshot_s")
	add("1/s", "higher", "storage.replay_records_per_s")

	add("s", "lower", "replication.bootstrap_s")
	add("1/s", "higher", "replication.catchup_records_per_s")
	add("count", "lower", "replication.lag_records_max", "replication.reconnects")
	add("count", "higher", "replication.frames_shipped", "replication.records_applied")

	for _, stage := range []string{"parse_us", "plan_us", "exec_us"} {
		for _, c := range cypherClasses {
			add("us", "lower", "cypher."+stage+"."+c)
		}
	}
	add("share", "higher", "cypher.plan_cache_hit_ratio")
	for _, c := range scanClasses {
		add("ratio", "lower", "cypher.rows_in_per_row_out."+c)
	}
	for _, stage := range []string{"handler_us", "self_us"} {
		for _, c := range serverClasses {
			add("us", "lower", "server."+stage+"."+c)
		}
	}
	add("us", "lower", "server.client_overhead_us")
	add("B/s", "higher", "server.bytes_out_per_s")
	add("count", "lower", "server.http_429", "server.http_5xx")
	add("us", "lower", "layout.us_per_expand")

	// The workload-specific numbers a user feels that not every workload
	// has (README.md says why they are not in endToEnd), taken from the
	// untraced part of the run, and the trace's own bookkeeping.
	add("s", "lower", "e2e.recover_s")
	add("B", "lower", "e2e.wal_bytes_per_report")
	add("ms", "lower", "e2e.latency_p99_ms", "e2e.first_row_ms", "e2e.read_p50_ms", "e2e.write_p50_ms", "e2e.write_tail_ms",
		"e2e.replica_visible_p50_ms", "e2e.replica_visible_tail_ms")
	add("1/s", "higher", "e2e.read_qps", "e2e.write_rows_per_s")
	add("share", "lower", "trace.overhead_share")
	add("share", "higher", "trace.accounted_share", "machine.speed")
	return out
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64) {
	m[name] = metricValue{Value: v, Unit: unitOf(name)}
}

var unitByName = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

func unitOf(name string) string { return unitByName[name] }

// fill returns exactly the metrics of defs, 0 for any the run did not
// produce, so the output always has the catalogue's shape.
func (m metricSet) fill(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			out[d.Name] = v
		} else {
			out[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	return out
}
