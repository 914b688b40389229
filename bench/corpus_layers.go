package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"securitykg/internal/connector"
	"securitykg/internal/cypher"
	"securitykg/internal/fusion"
	"securitykg/internal/graph"
	"securitykg/internal/metrics"
	"securitykg/internal/replication"
	"securitykg/internal/search"
	"securitykg/internal/storage"
)

// scrape reads the process-wide /metrics exposition into name -> value
// (unlabelled series only, which is all the ledger needs).
func scrape() map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(metrics.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok && !strings.Contains(name, "{") {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// copyDir copies the regular files of a data directory (not its LOCK).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// coldOpen times dir -> first query answered, and returns the
// recovered state's hash.
func coldOpen(dir string) (time.Duration, storage.RecoveryInfo, string, error) {
	t0 := time.Now()
	db, err := storage.Open(dir, durableOpts(-1))
	if err != nil {
		return 0, storage.RecoveryInfo{}, "", err
	}
	defer db.Close()
	res, err := cypher.NewEngine(db.Store(), cypher.DefaultOptions()).Query(`match (n) return count(*)`, nil)
	if err != nil || len(res.Rows) != 1 {
		return 0, db.Recovered, "", fmt.Errorf("first query after recovery: %v", err)
	}
	d := time.Since(t0)
	h, err := saveHash(db.Store())
	return d, db.Recovered, h, err
}

const coldOpens = 5

func (c *corpus) layers(traced *driveStats, tr *tracer, m metricSet) (string, error) {
	r := c.last
	busy := busyTimes(tr.spans)
	// A drive may hold several traced rounds; every number below is per
	// round, so it compares with the round-sized e2e numbers.
	rounds := float64(max(c.tracedRounds, 1))
	sec := func(name string) float64 { return busy[name].Seconds() / rounds }
	m.set("crawler.run_s", r.crawl.Elapsed.Seconds())
	m.set("crawler.fetches", float64(r.crawl.Fetches))
	m.set("crawler.fetch_busy_s", sec("crawler.fetch"))
	m.set("crawler.reports_collected", float64(r.crawl.Collected))
	m.set("crawler.retries", float64(r.crawl.Retries))

	run := r.proc.Elapsed.Seconds()
	m.set("pipeline.port_busy_s", sec("pipeline.port"))
	m.set("pipeline.check_busy_s", sec("pipeline.check"))
	m.set("pipeline.parse_busy_s", sec("pipeline.parse"))
	m.set("pipeline.extract_entity_busy_s", sec("pipeline.extract_entity"))
	m.set("pipeline.extract_relation_busy_s", sec("pipeline.extract_relation"))
	m.set("pipeline.connect_busy_s", sec("pipeline.connect"))
	m.set("pipeline.run_s", run)
	m.set("pipeline.extract_util", (sec("pipeline.extract_entity")+sec("pipeline.extract_relation"))/(run*float64(c.cfg.Pipeline.ExtractWorkers)))
	m.set("pipeline.connect_util", sec("pipeline.connect")/(run*2)) // ConnectWorkers defaults to 2
	m.set("pipeline.ported", float64(r.proc.Ported))
	m.set("pipeline.rejected", float64(r.proc.Rejected))
	m.set("pipeline.parse_errs", float64(r.proc.ParseErrs))
	m.set("pipeline.connected", float64(r.proc.Connected))
	m.set("pipeline.connect_errs", float64(r.proc.ConnectErrs))
	m.set("replication.lag_records_max", float64(r.lagMax))
	m.set("storage.fsyncs", c.tracedDelta["skg_wal_fsyncs_total"]/rounds)
	m.set("replication.frames_shipped", c.tracedDelta["skg_replication_frames_shipped_total"]/rounds)
	m.set("replication.records_applied", c.tracedDelta["skg_replication_records_applied_total"]/rounds)
	m.set("replication.reconnects", c.tracedDelta["skg_replication_reconnects_total"])
	m.set("ner.train_s", c.trainS)

	// ner: replay the parsed texts through the extractor, sequentially.
	parsed := r.seams.parsed
	if len(parsed) > 300 {
		parsed = parsed[:300]
	}
	var ents, rels int
	t0 := time.Now()
	for _, p := range parsed {
		ents += len(c.ner.Extract(p.Title + ".\n" + p.Text))
		rels += len(c.ner.ExtractRelations(p.Text))
	}
	nerUs := float64(time.Since(t0)) / 1e3 / float64(max(len(parsed), 1))
	m.set("ner.extract_us_per_report", nerUs)
	m.set("ner.entities_per_report", float64(ents)/float64(max(len(parsed), 1)))
	m.set("ner.relations_per_report", float64(rels)/float64(max(len(parsed), 1)))

	// connector: replay the extracted representations into a fresh
	// in-memory store, then into a fresh durable one. The difference is
	// what the log costs.
	reps := r.seams.extracted
	nReps := float64(max(len(reps), 1))
	mem := graph.New()
	var muts int
	mem.SetMutationHook(func(graph.Mutation) { muts++ })
	conn := connector.NewGraphConnector(mem, nil)
	heap0 := liveHeap()
	t0 = time.Now()
	for _, rep := range reps {
		if err := conn.Connect(rep); err != nil {
			return "", err
		}
	}
	memUs := float64(time.Since(t0)) / 1e3
	mem.SetMutationHook(nil)
	heap1 := liveHeap()
	m.set("connector.connect_us_per_report", memUs/nReps)
	m.set("connector.mutations_per_report", float64(muts)/nReps)
	m.set("graph.apply_us_per_mutation", memUs/float64(max(muts, 1)))
	m.set("graph.heap_bytes_per_node", float64(heap1-heap0)/float64(max(mem.Stats().Nodes, 1)))

	ddir := filepath.Join(c.dir, "replay-durable")
	ddb, err := storage.Open(ddir, durableOpts(-1))
	if err != nil {
		return "", err
	}
	dconn := connector.NewGraphConnector(ddb.Store(), nil)
	t0 = time.Now()
	for _, rep := range reps {
		if err := dconn.Connect(rep); err != nil {
			ddb.Close()
			return "", err
		}
	}
	durUs := float64(time.Since(t0)) / 1e3
	recs := float64(max(ddb.LastSeq(), 1))
	m.set("connector.wal_records_per_report", float64(ddb.LastSeq())/nReps)
	m.set("storage.append_us_per_record", max(durUs-memUs, 0)/recs)
	m.set("storage.wal_bytes_per_record", float64(ddb.WALSize())/recs)

	// storage: checkpoint cost and size on the replayed store, then a
	// snapshot-only recovery of it.
	t0 = time.Now()
	if err := ddb.Checkpoint(); err != nil {
		ddb.Close()
		return "", err
	}
	m.set("storage.checkpoint_s", time.Since(t0).Seconds())
	m.set("storage.checkpoints", 1)
	if fi, err := os.Stat(filepath.Join(ddir, "snapshot.skg")); err == nil {
		m.set("storage.snapshot_bytes", float64(fi.Size()))
	}
	if err := ddb.Close(); err != nil {
		return "", err
	}
	t0 = time.Now()
	sdb, err := storage.Open(ddir, durableOpts(-1))
	if err != nil {
		return "", err
	}
	m.set("storage.recover_snapshot_s", time.Since(t0).Seconds())
	sdb.Close()

	// search: index the same documents, then query by title words.
	ix := search.NewIndex(map[string]float64{"title": 2.0})
	t0 = time.Now()
	for _, rep := range reps {
		ix.Add(search.Document{ID: rep.ReportID, Fields: map[string]string{"title": rep.Title, "body": rep.Text}})
	}
	m.set("search.add_us_per_doc", float64(time.Since(t0))/1e3/nReps)
	qus, _ := timeEach(min(len(reps), 200), func(i int) error {
		ix.Search(reps[i].Title, searchTopK)
		return nil
	})
	m.set("search.query_us", qus)

	// fusion: one pass over the replayed graph.
	t0 = time.Now()
	fst, err := fusion.Fuse(mem, fusion.Options{Types: c.cfg.Fusion.Types})
	if err != nil {
		return "", err
	}
	m.set("fusion.fuse_s", time.Since(t0).Seconds())
	m.set("fusion.nodes_merged", float64(fst.NodesMerged))

	// recovery: cold opens of a copy of the leader's directory. No
	// checkpoint has fired, so this is pure WAL replay.
	if err := r.ldb.Sync(); err != nil {
		return "", err
	}
	leaderHash, err := saveHash(r.ldb.Store())
	if err != nil {
		return "", err
	}
	cdir := filepath.Join(c.dir, "recover-copy")
	if err := copyDir(r.ldir, cdir); err != nil {
		return "", err
	}
	var opens []time.Duration
	var replayed int
	for i := 0; i < coldOpens; i++ {
		d, info, h, err := coldOpen(cdir)
		if err != nil {
			return "", err
		}
		if h != leaderHash {
			traced.errs = append(traced.errs, "recovered directory's state differs from the leader's")
			traced.failed++
		}
		opens = append(opens, d)
		replayed = info.Replayed
	}
	rec := medianDur(opens).Seconds()
	m.set("e2e.recover_s", rec)
	m.set("storage.replay_records_per_s", float64(replayed)/rec)

	// replication: bootstrap is a snapshot transfer of the final leader
	// into a fresh directory; catch-up is an empty follower tailing the
	// leader's whole log.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0 = time.Now()
	if err := replication.Bootstrap(ctx, filepath.Join(c.dir, "bootstrap-follower"), r.leader.URL, nil, nil); err != nil {
		return "", err
	}
	m.set("replication.bootstrap_s", time.Since(t0).Seconds())
	fdb, err := storage.Open(filepath.Join(c.dir, "catchup-follower"), durableOpts(-1))
	if err != nil {
		return "", err
	}
	repl := replication.NewReplicator(fdb, r.leader.URL)
	done := make(chan error, 1)
	t0 = time.Now()
	go func() { done <- repl.Run(ctx) }()
	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	werr := repl.WaitApplied(wctx, r.ldb.LastSeq())
	wcancel()
	catchup := time.Since(t0).Seconds()
	cancel()
	<-done
	fdb.Close()
	if werr != nil {
		return "", fmt.Errorf("catch-up follower: %w", werr)
	}
	m.set("replication.catchup_records_per_s", float64(r.ldb.LastSeq())/catchup)

	// Where the traced time went. The pipeline's workers outnumber the
	// cores, so a stage's busy time includes waiting for a core and the
	// stages' sum exceeds wall × cores; the split is therefore of the
	// summed busy time, and accounted_share says how much of wall × cores
	// that sum would cover (capped at 1).
	connectUs := sec("pipeline.connect") * 1e6
	searchUs := m["search.add_us_per_doc"].Value * nReps
	storageUs := m["storage.append_us_per_record"].Value * float64(r.ldb.LastSeq())
	layer := map[string]float64{
		"crawler":     sec("crawler.fetch") * 1e6,
		"pipeline":    (sec("pipeline.port") + sec("pipeline.check") + sec("pipeline.parse")) * 1e6,
		"ner":         (sec("pipeline.extract_entity") + sec("pipeline.extract_relation")) * 1e6,
		"search":      searchUs,
		"storage":     storageUs,
		"connector":   max(connectUs-searchUs-storageUs, 0),
		"replication": float64(r.ldb.LastSeq()) / m["replication.catchup_records_per_s"].Value * 1e6,
	}
	busySum := 0.0
	for k := range layer {
		layer[k] *= rounds
		busySum += layer[k]
	}
	shares := reportLayerShares(layer, time.Duration(busySum*1e3), m, tr)
	cores := float64(c.tracedWall) / 1e3 * float64(runtime.GOMAXPROCS(0))
	m.set("trace.accounted_share", min(busySum/cores, 1))
	return shares, nil
}
