package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/storage"
)

// replayBatches is how many of the writer's batches the write-path
// replays run.
const replayBatches = 12

// scratchStore returns a store holding the IP nodes the replayed
// batches will merge-hit, so the replay does the mix of hits and
// creates the live run does.
func scratchStore(st *graph.Store, batches []*writeBatch, known map[string]bool) {
	st.BeginBulk()
	for _, b := range batches {
		for _, row := range b.batch {
			if ip := row.(map[string]any)["ip"].(string); known[ip] {
				st.MergeNode("IP", ip, map[string]string{"first_seen": "2021"})
			}
		}
	}
	st.EndBulk()
}

func (u *underHunt) layers(traced *driveStats, tr *tracer, m metricSet) (string, error) {
	layer := map[string]float64{}
	ldb := u.pair.ldb
	if err := readLayers(ldb.Store(), u.index, u.model, u.seed, 1, false, traced, tr, m, layer); err != nil {
		return "", err
	}
	for _, k := range []string{"graph.mvcc_versions_peak", "graph.stats_version_bumps", "replication.lag_records_max",
		"storage.fsyncs", "storage.checkpoints", "storage.checkpoint_s", "storage.wal_bytes_per_record",
		"replication.frames_shipped", "replication.records_applied", "replication.reconnects"} {
		m.set(k, traced.extra[k])
	}
	m.set("replication.bootstrap_s", u.bootstrapS)
	if fi, err := os.Stat(filepath.Join(u.pair.ldir, "snapshot.skg")); err == nil {
		m.set("storage.snapshot_bytes", float64(fi.Size()))
	}

	// The writer's rows, replayed one entry point deeper each time:
	// Engine.Query of the next batches on the live leader (everything
	// below the handler, on the real store), then on scratch stores
	// Engine.Query and Stmt.Query in memory, ApplyBatch of the mutations
	// that statement produced in memory, and the same ApplyBatch durable.
	leng := cypher.NewEngine(ldb.Store(), cypher.DefaultOptions())
	liveUs, err := timeEach(replayBatches, func(int) error {
		// The live generator, so the final key count still holds.
		_, err := leng.Query(qWriteBatch, map[string]any{"batch": u.writer.next().batch})
		return err
	})
	if err != nil {
		return "", fmt.Errorf("replay write-batch on the leader: %w", err)
	}
	known := map[string]bool{}
	for i, l := range u.model.iocLabel {
		if l == "IP" {
			known[u.model.iocs[i]] = true
		}
	}
	g := newWriteGen(u.model, u.seed, u.batchRows)
	batches := make([]*writeBatch, replayBatches)
	for i := range batches {
		batches[i] = g.next()
	}
	params := func(b *writeBatch) map[string]any { return map[string]any{"batch": b.batch} }

	// Engine.Query, capturing the mutations each batch commits.
	qStore := graph.New()
	scratchStore(qStore, batches, known)
	var muts [][]graph.Mutation
	var cur []graph.Mutation
	qStore.SetMutationHook(func(mu graph.Mutation) {
		switch mu.Op {
		case graph.OpTxBegin:
			cur = nil
		case graph.OpTxCommit:
			muts = append(muts, cur)
		default:
			cur = append(cur, cloneForReplay(mu))
		}
	})
	qeng := cypher.NewEngine(qStore, cypher.DefaultOptions())
	queryUs, err := timeEach(len(batches), func(i int) error {
		_, err := qeng.Query(qWriteBatch, params(batches[i]))
		return err
	})
	if err != nil {
		return "", fmt.Errorf("replay write-batch: %w", err)
	}
	qStore.SetMutationHook(nil)
	if len(muts) != len(batches) {
		return "", fmt.Errorf("replay write-batch: %d committed groups for %d batches", len(muts), len(batches))
	}

	// cypher.Parse, Prepare on an unseen text, Stmt.Query.
	sStore := graph.New()
	scratchStore(sStore, batches, known)
	seng := cypher.NewEngine(sStore, cypher.DefaultOptions())
	parseUs, _ := timeEach(50, func(int) error { _, err := cypher.Parse(qWriteBatch); return err })
	prepUs, err := timeEach(50, func(i int) error {
		_, err := seng.Prepare(qWriteBatch + fmt.Sprintf("%*s", i+1, ""))
		return err
	})
	if err != nil {
		return "", err
	}
	stmt, err := seng.Prepare(qWriteBatch)
	if err != nil {
		return "", err
	}
	execUs, err := timeEach(len(batches), func(i int) error {
		_, err := stmt.Query(params(batches[i]))
		return err
	})
	if err != nil {
		return "", err
	}
	m.set("cypher.parse_us.write-batch", parseUs)
	m.set("cypher.plan_us.write-batch", max(prepUs-parseUs, 0))
	m.set("cypher.exec_us.write-batch", execUs)

	// graph.Store.ApplyBatch of the same mutations, in memory.
	aStore := graph.New()
	scratchStore(aStore, batches, known)
	nMuts := 0
	applyUs, err := timeEach(len(muts), func(i int) error {
		nMuts += len(muts[i])
		_, err := aStore.ApplyBatch(muts[i])
		return err
	})
	if err != nil {
		return "", fmt.Errorf("replay ApplyBatch: %w", err)
	}
	perBatch := float64(nMuts) / float64(len(muts))
	m.set("graph.apply_us_per_mutation", applyUs/perBatch)

	// ... and durable.
	ddir := filepath.Join(u.dir, "replay-durable")
	ddb, err := storage.Open(ddir, durableOpts(-1))
	if err != nil {
		return "", err
	}
	scratchStore(ddb.Store(), batches, known)
	seq0 := ddb.LastSeq()
	durUs, err := timeEach(len(muts), func(i int) error {
		_, err := ddb.Store().ApplyBatch(muts[i])
		return err
	})
	recsPerBatch := float64(ddb.LastSeq()-seq0) / float64(len(muts))
	ddb.Close()
	if err != nil {
		return "", fmt.Errorf("replay durable ApplyBatch: %w", err)
	}
	m.set("storage.append_us_per_record", max(durUs-applyUs, 0)/recsPerBatch)

	// One cold open of a copy of the leader's directory: snapshot load
	// plus the tail since the last checkpoint.
	if err := ldb.Sync(); err != nil {
		return "", err
	}
	cdir := filepath.Join(u.dir, "recover-copy")
	if err := copyDir(u.pair.ldir, cdir); err != nil {
		return "", err
	}
	t0 := time.Now()
	rdb, err := storage.Open(cdir, durableOpts(-1))
	if err != nil {
		return "", fmt.Errorf("cold open of the leader's copy: %w", err)
	}
	m.set("storage.recover_snapshot_s", time.Since(t0).Seconds())
	rdb.Close()
	m.set("graph.snapshot_pair_us", snapshotPairUs(ldb.Store()))

	// The writer's side of the traced time. A batch's handler time above
	// the live Engine.Query is the server's; the live Engine.Query splits
	// into cypher (the statement's cost above the bare ApplyBatch), graph
	// (ApplyBatch in memory) and storage (durable − in-memory) in the
	// proportions the scratch replays give.
	handler, overhead := spanDurations(tr.spans, "server.handler.")
	hus := median(handler["write-batch"])
	m.set("server.self_us.write-batch", max(hus-liveUs, 0))
	n := float64(len(handler["write-batch"]))
	below := min(liveUs, hus)
	scratch := queryUs + max(durUs-applyUs, 0)
	layer["client"] += sum(overhead["write-batch"]) + sum(overhead["visible"])
	layer["server"] += n * (hus - below)
	layer["cypher.exec"] += n * below * max(queryUs-applyUs, 0) / scratch
	layer["graph"] += n * below * applyUs / scratch
	layer["storage"] += n * below * max(durUs-applyUs, 0) / scratch
	// What the batches' summed handler time exceeds the typical batch by
	// is time spent queued behind a checkpoint holding the writer lock.
	layer["storage.stall"] += max(sum(handler["write-batch"])-n*hus, 0)
	// The follower's handler is mostly the min_seq wait: replication.
	layer["replication"] += sum(handler["visible"])
	addHarness(layer, tr, traced.wall*clients)
	return reportLayerShares(layer, traced.wall*clients, m, tr), nil
}

// cloneForReplay copies a mutation out of the hook: the hook's Attrs map
// may be reused after it returns.
func cloneForReplay(mu graph.Mutation) graph.Mutation {
	if len(mu.Attrs) > 0 {
		attrs := make(map[string]string, len(mu.Attrs))
		for k, v := range mu.Attrs {
			attrs[k] = v
		}
		mu.Attrs = attrs
	}
	return mu
}
