package securitykg

// Storage benchmarks, run by `make bench` and recorded in
// BENCH_cypher.json: one logged mutation, cold-start replay of a
// 20k-record log, cold start from a snapshot, and a checkpoint.

import (
	"fmt"
	"runtime"
	"testing"

	"securitykg/internal/graph"
	"securitykg/internal/storage"
)

var storageBenchOpts = storage.Options{Sync: storage.SyncNever, CompactBytes: -1}

// BenchmarkStorageAppend measures one logged store mutation
// (alternating node merge / edge add) through the mutation hook into
// the log, without fsync noise. bytes/op is the on-disk footprint per
// mutation — the in-band dictionary makes it shrink as type/key strings
// repeat.
func BenchmarkStorageAppend(b *testing.B) {
	db, err := storage.Open(b.TempDir(), storageBenchOpts)
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
}

// buildStorageDir writes a 20k-mutation data directory;
// checkpoint=true leaves a snapshot and an empty log, checkpoint=false
// leaves the full replayable log.
func buildStorageDir(b *testing.B, checkpoint bool) string {
	b.Helper()
	dir := b.TempDir()
	db, err := storage.Open(dir, storageBenchOpts)
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

// benchStorageOpen measures cold starts of dir.
func benchStorageOpen(b *testing.B, dir string) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := storage.Open(dir, storageBenchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if db.Store().CountNodes() != 20001 {
			b.Fatalf("recovered %d nodes", db.Store().CountNodes())
		}
		db.Close()
	}
}

// BenchmarkStorageReplay measures cold-start recovery replaying a
// 20k-record WAL (no snapshot).
func BenchmarkStorageReplay(b *testing.B) {
	b.Run("20k", func(b *testing.B) { benchStorageOpen(b, buildStorageDir(b, false)) })
}

// BenchmarkStorageSnapshotLoad measures cold-start from a checkpointed
// directory (snapshot load + empty log tail).
func BenchmarkStorageSnapshotLoad(b *testing.B) {
	b.Run("20k", func(b *testing.B) { benchStorageOpen(b, buildStorageDir(b, true)) })
}

// BenchmarkStorageReportCommit measures one report's commit group — 21
// mutations (report node, vendor edge, nine new entities with their
// MENTIONS edges, one relation edge) in one transaction — on durable
// stores whose packed adjacency holds 1k to 400k edges. The group's
// edges stay in the adjacency overlay until it outgrows its threshold,
// so the arms must read flat: a commit that repacked the whole store
// would grow with it.
func BenchmarkStorageReportCommit(b *testing.B) {
	for _, edges := range []int{1000, 10000, 100000, 400000} {
		b.Run(fmt.Sprintf("edges=%dk", edges/1000), func(b *testing.B) {
			db, err := storage.Open(b.TempDir(), storageBenchOpts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			st := db.Store()
			nodes := edges / 5
			ids := make([]graph.NodeID, nodes)
			st.BeginBulk()
			for i := range ids {
				ids[i], _ = st.MergeNode("Host", fmt.Sprintf("h-%d", i), nil)
			}
			for i := 0; i < edges; i++ {
				from := i % nodes
				st.AddEdge(ids[from], "CONNECT", ids[(from+1+13*(i/nodes))%nodes], nil)
			}
			st.EndBulk()
			vendor, _ := st.MergeNode("CTIVendor", "vendor", nil)
			commit := func(i int) {
				tx := st.BeginTx()
				rep, _ := tx.MergeNode("MalwareReport", fmt.Sprintf("report-%d", i), map[string]string{"report_id": fmt.Sprint(i)})
				tx.AddEdge(rep, "REPORTED_BY", vendor, nil)
				var first graph.NodeID
				for j := 0; j < 9; j++ {
					e, _ := tx.MergeNode("IP", fmt.Sprintf("ip-%d-%d", i, j), nil)
					tx.AddEdge(rep, "MENTIONS", e, nil)
					if j == 0 {
						first = e
					}
				}
				tx.AddEdge(first, "CONNECT", ids[(i+nodes)%nodes], nil)
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			// The build's garbage and the first commit's cold caches are
			// not a commit's cost.
			commit(-1)
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit(i)
			}
			b.StopTimer() // the deferred Close flushes the build's log
		})
	}
}

// BenchmarkStorageSnapshotSave measures Checkpoint (snapshot write +
// fsync + WAL truncation) of a 40k-element store.
func BenchmarkStorageSnapshotSave(b *testing.B) {
	b.Run("20k", func(b *testing.B) {
		db, err := storage.Open(buildStorageDir(b, false), storageBenchOpts)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Mutate so every checkpoint has a fresh seq to cover (a
			// no-op checkpoint would still rewrite the snapshot, but
			// keep the loop honest).
			db.Store().SetAttr(graph.NodeID(1), "round", fmt.Sprint(i))
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
