package securitykg

// Replication benchmarks, run by `make bench` and recorded in
// BENCH_cypher.json: follower catch-up throughput (how many WAL
// records per second a fresh replica folds while tailing a leader over
// HTTP), steady-state lag (how far behind a connected replica sits
// the moment the leader finishes a burst of writes) and the per-group
// cost of the live replicated write path (ShipGroup).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"securitykg/internal/replication"
	"securitykg/internal/storage"
)

// benchLeader opens a durable leader with n logged mutations and
// serves its replication endpoints.
func benchLeader(b *testing.B, n int) (*storage.DB, *httptest.Server) {
	b.Helper()
	db, err := storage.Open(b.TempDir(), storage.Options{
		Sync: storage.SyncNever, CompactBytes: -1, TailRecords: n + 1024, TailBytes: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := db.Store()
	seed, _ := st.MergeNode("Seed", "seed", nil)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			st.MergeNode("Malware", fmt.Sprintf("m-%d", i), map[string]string{"seen": "1"})
		} else {
			id, _ := st.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", (i/250)%250, i%250), nil)
			st.AddEdge(seed, "CONNECT", id, nil)
		}
	}
	mux := http.NewServeMux()
	(&replication.Leader{DB: db}).Register(mux)
	srv := httptest.NewServer(mux)
	b.Cleanup(srv.Close)
	b.Cleanup(func() { db.Close() })
	return db, srv
}

// BenchmarkReplicationCatchUp measures a cold follower consuming a 20k
// record WAL tail over the stream — snapshotless catch-up, the path a
// restarted replica takes. records/s is the headline metric.
func BenchmarkReplicationCatchUp(b *testing.B) {
	const records = 20_000
	ldb, srv := benchLeader(b, records)
	target := ldb.CommittedSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fdb, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		repl := replication.NewReplicator(fdb, srv.URL)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		b.StartTimer()
		start := time.Now()
		go func() { done <- repl.Run(ctx) }()
		if err := repl.WaitApplied(ctx, target); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		b.StopTimer()
		b.ReportMetric(float64(target)/elapsed.Seconds(), "records/s")
		cancel()
		<-done
		fdb.Close()
		b.StartTimer()
	}
}

// BenchmarkReplicationSteadyLag measures how far behind a connected
// replica sits under write load: the leader applies a 2k-record burst,
// and the moment the burst ends the replica's lag (committed minus
// applied) is sampled, then drained to zero. lag-records is the
// snapshot at burst end; catchup-ms is how long the drain took.
func BenchmarkReplicationSteadyLag(b *testing.B) {
	ldb, srv := benchLeader(b, 1000)
	fdb, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	repl := replication.NewReplicator(fdb, srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- repl.Run(ctx) }()
	defer func() { cancel(); <-done; fdb.Close() }()
	if err := repl.WaitApplied(ctx, ldb.CommittedSeq()); err != nil {
		b.Fatal(err)
	}
	st := ldb.Store()
	var lagSum, rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2000; j++ {
			st.MergeNode("Malware", fmt.Sprintf("burst-%d-%d", i, j), nil)
		}
		burstEnd := ldb.CommittedSeq()
		lagSum += float64(burstEnd - repl.AppliedSeq())
		rounds++
		start := time.Now()
		if err := repl.WaitApplied(ctx, burstEnd); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(time.Since(start).Milliseconds()), "catchup-ms")
	}
	b.ReportMetric(lagSum/rounds, "lag-records")
}

// countingTransport counts the body bytes a follower reads off its
// streams: the wire cost of what the leader shipped.
type countingTransport struct{ bytes atomic.Int64 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// BenchmarkReplicationShipGroup measures the steady-state replicated
// write path a live ingest drives: one op commits a 500-row group (a
// merge and a property write per row, as the ledger's write batch does)
// on the leader and waits until the connected follower has applied it —
// log, tail, frame, loopback, decode, apply, the follower's own log.
// records/s counts WAL records end to end, wire-B/record is what crossed
// the connection (frame headers and heartbeats included), and allocs/op
// is per group — 1002 records — on both nodes, the graph's included.
func BenchmarkReplicationShipGroup(b *testing.B) {
	const rows = 500
	ldb, srv := benchLeader(b, 100)
	fdb, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	wire := &countingTransport{}
	repl := replication.NewReplicator(fdb, srv.URL)
	repl.Client = &http.Client{Transport: wire}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- repl.Run(ctx) }()
	defer func() { cancel(); <-done; fdb.Close() }()
	commit := func(round int) {
		tx := ldb.Store().BeginTx()
		for i := 0; i < rows; i++ {
			id := tx.MergeNode("IP", fmt.Sprintf("172.%d.%d.%d", round, i/250, i%250), nil).Node.ID
			tx.SetAttr(id, "last_seen", fmt.Sprintf("2026-01-01T00:%02d:00Z", round%60))
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := repl.WaitApplied(ctx, ldb.CommittedSeq()); err != nil {
			b.Fatal(err)
		}
	}
	commit(250) // connect, size buffers
	seq, sent := ldb.CommittedSeq(), wire.bytes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(i)
	}
	b.StopTimer()
	records := float64(ldb.CommittedSeq() - seq)
	b.ReportMetric(records/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(wire.bytes.Load()-sent)/records, "wire-B/record")
}
