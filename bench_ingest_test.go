package securitykg

// Live-ingest benchmarks, run by `make bench` and recorded in
// BENCH_cypher.json: UNWIND batch mutation throughput against the
// equivalent per-statement CREATE loop (the batch path owes its margin
// to one parse/plan, one transaction and one group-committed WAL append
// per batch instead of per row), and soak arms
// measuring ingest rows/s through a live leader/follower pair under
// concurrent readers, with writer/reader counts in the arm names.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/replication"
	"securitykg/internal/search"
	"securitykg/internal/server"
	"securitykg/internal/storage"
)

// ingestStores yields the in-memory and WAL-backed stores the
// engine-level batch benchmarks run against.
func ingestStores(b *testing.B) map[string]*graph.Store {
	b.Helper()
	db, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return map[string]*graph.Store{"mem": graph.New(), "wal": db.Store()}
}

// ingestHTTPServer stands up the real serving surface — /api/cypher
// over a durable group-committed (interval-fsync) store — which is
// where the batch path's margin lives: one HTTP round trip, one
// parse/plan, one transaction, one WAL tx group per batch instead of
// per row.
func ingestHTTPServer(b *testing.B) *httptest.Server {
	b.Helper()
	db, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncInterval, CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	srv := server.NewWith(db.Store(), search.NewIndex(nil), cypher.DefaultOptions())
	srv.SetReplication(server.Replication{Role: "primary", Seq: db.CommittedSeq, Lag: func() int64 { return 0 }})
	mux := http.NewServeMux()
	mux.Handle("/api/", srv)
	ts := httptest.NewServer(mux)
	b.Cleanup(ts.Close)
	return ts
}

// postIngest posts one /api/cypher payload and fails the benchmark on
// any non-200.
func postIngest(b *testing.B, url string, payload map[string]any) {
	b.Helper()
	body, _ := json.Marshal(payload)
	resp, err := http.Post(url+"/api/cypher", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		b.Fatalf("ingest status %d: %v", resp.StatusCode, out["error"])
	}
}

// benchInvocation distinguishes repeated invocations of one benchmark
// closure (the harness probes with b.N=1 before the measured run, against
// the same store): node names carry it so every CREATE is genuinely new
// — a repeat would merge-hit and create nothing.
var benchInvocation atomic.Int64

// BenchmarkCypherBatchUnwind: one UNWIND $batch statement creating 1024
// nodes per op — the tentpole ingest path. rows/s is the headline.
func BenchmarkCypherBatchUnwind(b *testing.B) {
	const rows = 1024
	for name, s := range ingestStores(b) {
		b.Run(name, func(b *testing.B) {
			run := benchInvocation.Add(1)
			eng := cypher.NewEngine(s, cypher.Options{UseIndexes: true, MaxRows: 1 << 20})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([]any, 0, rows)
				for j := 0; j < rows; j++ {
					batch = append(batch, map[string]any{"name": fmt.Sprintf("bu-%d-%d-%d", run, i, j)})
				}
				res, err := eng.Query(
					`UNWIND $batch AS row CREATE (h:Host {name: row.name})`,
					map[string]any{"batch": batch})
				if err != nil {
					b.Fatal(err)
				}
				if res.Writes == nil || res.Writes.NodesCreated != rows {
					b.Fatalf("writes = %+v, want %d nodes", res.Writes, rows)
				}
			}
			b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
		})
	}
	// The serving surface: one POST carrying the whole batch.
	b.Run("http", func(b *testing.B) {
		ts := ingestHTTPServer(b)
		run := benchInvocation.Add(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := make([]any, 0, rows)
			for j := 0; j < rows; j++ {
				batch = append(batch, map[string]any{"name": fmt.Sprintf("bh-%d-%d-%d", run, i, j)})
			}
			postIngest(b, ts.URL, map[string]any{
				"query":  `UNWIND $batch AS row CREATE (h:Host {name: row.name})`,
				"params": map[string]any{"batch": batch},
			})
		}
		b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkCypherPerStatementCreate is the baseline the batch path is
// measured against: the same 1024 rows as 1024 individual
// parameterized CREATE statements (plan-cached, so the margin is real
// per-statement overhead — round trip, transaction, WAL record — not
// re-parsing). The acceptance bar for the batch path is >=5x this
// baseline's rows/s on the http arm.
func BenchmarkCypherPerStatementCreate(b *testing.B) {
	const rows = 1024
	for name, s := range ingestStores(b) {
		b.Run(name, func(b *testing.B) {
			run := benchInvocation.Add(1)
			eng := cypher.NewEngine(s, cypher.Options{UseIndexes: true, MaxRows: 1 << 20})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < rows; j++ {
					if _, err := eng.Query(
						`CREATE (h:Host {name: $name})`,
						map[string]any{"name": fmt.Sprintf("ps-%d-%d-%d", run, i, j)}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
		})
	}
	// The serving surface: 1024 POSTs, one per row. This is the arm the
	// batch path's >=5x margin is measured against — each row pays an
	// HTTP round trip, a transaction and a WAL record of its own.
	b.Run("http", func(b *testing.B) {
		ts := ingestHTTPServer(b)
		run := benchInvocation.Add(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < rows; j++ {
				postIngest(b, ts.URL, map[string]any{
					"query":  `CREATE (h:Host {name: $name})`,
					"params": map[string]any{"name": fmt.Sprintf("ph-%d-%d-%d", run, i, j)},
				})
			}
		}
		b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkReplicationSoakIngest: live-ingest throughput over HTTP
// through a leader with a tailing follower, while reader clients query
// the follower concurrently. Arms record the writer/reader counts in
// their names; rows/s counts only acknowledged batch rows.
func BenchmarkReplicationSoakIngest(b *testing.B) {
	const rowsPerBatch = 256
	arms := []struct{ writers, readers int }{{1, 1}, {2, 2}, {4, 2}}
	for _, arm := range arms {
		b.Run(fmt.Sprintf("w%d-r%d", arm.writers, arm.readers), func(b *testing.B) {
			// Leader serving the Cypher API and its WAL tail.
			ldb, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer ldb.Close()
			lsrv := server.NewWith(ldb.Store(), search.NewIndex(nil), cypher.DefaultOptions())
			lsrv.SetReplication(server.Replication{
				Role: "primary", Seq: ldb.CommittedSeq, Lag: func() int64 { return 0 },
			})
			lmux := http.NewServeMux()
			lmux.Handle("/api/", lsrv)
			(&replication.Leader{DB: ldb, HeartbeatEvery: 10 * time.Millisecond}).Register(lmux)
			leader := httptest.NewServer(lmux)
			defer leader.Close()

			// Tailing follower serving reads.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fdir := b.TempDir()
			if err := replication.Bootstrap(ctx, fdir, leader.URL, nil, nil); err != nil {
				b.Fatal(err)
			}
			fdb, err := storage.Open(fdir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer fdb.Close()
			repl := replication.NewReplicator(fdb, leader.URL)
			done := make(chan error, 1)
			go func() { done <- repl.Run(ctx) }()
			defer func() { cancel(); <-done }()
			ropts := cypher.DefaultOptions()
			ropts.ReadOnly = true
			fsrv := server.NewWith(fdb.Store(), search.NewIndex(nil), ropts)
			fsrv.SetReplication(server.Replication{
				Role: "replica", LeaderURL: leader.URL,
				Seq: repl.AppliedSeq, WaitSeq: repl.WaitApplied,
				Lag: func() int64 { return repl.Status().LagRecords },
			})
			fmux := http.NewServeMux()
			fmux.Handle("/api/", fsrv)
			follower := httptest.NewServer(fmux)
			defer follower.Close()

			// Background readers against the follower.
			stop := make(chan struct{})
			var readersWG sync.WaitGroup
			readBody, _ := json.Marshal(map[string]any{"query": `match (h:Host) return count(*)`})
			for r := 0; r < arm.readers; r++ {
				readersWG.Add(1)
				go func() {
					defer readersWG.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						resp, err := http.Post(follower.URL+"/api/cypher", "application/json", bytes.NewReader(readBody))
						if err != nil {
							return
						}
						resp.Body.Close()
					}
				}()
			}
			defer func() { close(stop); readersWG.Wait() }()

			// b.N batches of rowsPerBatch rows, spread across the writers.
			var batchNo atomic.Int64
			var maxSeq atomic.Uint64
			var writersWG sync.WaitGroup
			var writeErr atomic.Value
			b.ResetTimer()
			for w := 0; w < arm.writers; w++ {
				writersWG.Add(1)
				go func(w int) {
					defer writersWG.Done()
					for {
						bn := batchNo.Add(1) - 1
						if bn >= int64(b.N) {
							return
						}
						batch := make([]any, 0, rowsPerBatch)
						for j := 0; j < rowsPerBatch; j++ {
							batch = append(batch, map[string]any{
								"name": fmt.Sprintf("soak-w%d-b%d-r%d", w, bn, j)})
						}
						body, _ := json.Marshal(map[string]any{
							"query":  `UNWIND $batch AS row CREATE (h:Host {name: row.name})`,
							"params": map[string]any{"batch": batch},
						})
						resp, err := http.Post(leader.URL+"/api/cypher", "application/json", bytes.NewReader(body))
						if err != nil {
							writeErr.Store(err)
							return
						}
						var out map[string]any
						json.NewDecoder(resp.Body).Decode(&out)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							writeErr.Store(fmt.Errorf("ingest status %d: %v", resp.StatusCode, out["error"]))
							return
						}
						if seq, ok := out["seq"].(float64); ok {
							for {
								cur := maxSeq.Load()
								if uint64(seq) <= cur || maxSeq.CompareAndSwap(cur, uint64(seq)) {
									break
								}
							}
						}
					}
				}(w)
			}
			writersWG.Wait()
			rowsPerSec := float64(b.N) * rowsPerBatch / b.Elapsed().Seconds()
			b.StopTimer()
			if err, _ := writeErr.Load().(error); err != nil {
				b.Fatal(err)
			}
			// Follower must drain to the last acknowledged seq — a soak
			// arm that leaves the replica behind is not a passing arm.
			wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
			defer wcancel()
			if err := repl.WaitApplied(wctx, maxSeq.Load()); err != nil {
				b.Fatalf("follower never drained to %d: %v", maxSeq.Load(), err)
			}
			b.ReportMetric(rowsPerSec, "rows/s")
		})
	}
}
