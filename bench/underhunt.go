package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
	"securitykg/internal/server"
	"securitykg/internal/storage"
)

// underHunt is ingest-under-hunt: writes beside reads on one store. A
// durable leader is preloaded with kg-100k and checkpointed, a follower
// bootstraps from that snapshot and tails it, and the leader is
// checkpointed every checkpointEvery while the run goes, so several
// checkpoints fire inside it at the same moments in every run.
//
// The checkpoints are called for, not left to Options.CompactBytes: a
// checkpoint truncates the log only if nothing was appended while it
// ran, which under a writer that never pauses is never, so once the log
// passes CompactBytes the store checkpoints back to back (33 in a 15 s
// run at 512 KiB, readers and the writer stalled for 95% of it). That
// regime measures the checkpoint and nothing else; README.md lists it
// among the anomalies to fix.
// Connection 1 (the writer) posts one UNWIND batch to the leader, takes
// the acknowledged seq, and reads the batch's last row back from the
// follower with min_seq=seq. Connection 2 (the hunter) runs the
// hunt-point mix against the leader.
type underHunt struct {
	seed      int64
	size      kgSize
	dir       string
	batchRows int
	every     time.Duration // checkpoint period

	pair     *ingestRound
	model    *kgModel
	index    *search.Index
	lsrv     *server.Server
	lseam    *seamHandler
	fseam    *seamHandler
	follower *httptest.Server
	conns    [clients]*conn
	hunter   *reqGen
	writer   *writeGen
	chk      *checker

	bootstrapS float64
	setups     int
}

const checkpointEvery = 3 * time.Second

func newUnderHunt(seed int64, size kgSize, short bool, dir string) *underHunt {
	u := &underHunt{seed: seed, size: size, dir: dir, batchRows: 500, every: checkpointEvery}
	if short {
		u.batchRows, u.every = 50, 300*time.Millisecond
	}
	return u
}

func (u *underHunt) setup() error {
	u.setups++
	base := filepath.Join(u.dir, fmt.Sprintf("pair-%d", u.setups))
	u.index = search.NewIndex(map[string]float64{"title": 2.0})
	u.lseam = &seamHandler{}
	// Preload with compaction off, checkpoint, close: the leader then
	// recovers from that snapshot as a restarted server would, and the
	// follower bootstraps from it.
	ldir := filepath.Join(base, "leader")
	pre, err := storage.Open(ldir, durableOpts(-1))
	if err != nil {
		return err
	}
	if u.model, err = buildKG(u.seed, u.size, pre.Store(), u.index); err == nil {
		err = pre.Checkpoint()
	}
	if cerr := pre.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	bootStart := time.Now()
	pair, err := openPair(ldir, filepath.Join(base, "follower"), -1,
		func(mux *http.ServeMux, ldb *storage.DB) {
			u.lsrv = server.NewWith(ldb.Store(), u.index, cypher.DefaultOptions())
			u.lsrv.SetReplication(server.Replication{Role: "primary", Seq: ldb.CommittedSeq, Lag: func() int64 { return 0 }})
			u.lseam.inner = u.lsrv
			mux.Handle("/api/", u.lseam)
		})
	if err != nil {
		return err
	}
	u.pair = pair
	u.bootstrapS = time.Since(bootStart).Seconds() // leader recovery + snapshot transfer + follower open
	ropts := cypher.DefaultOptions()
	ropts.ReadOnly = true
	fsrv := server.NewWith(pair.fdb.Store(), search.NewIndex(nil), ropts)
	fsrv.SetReplication(server.Replication{
		Role: "replica", LeaderURL: pair.leader.URL,
		Seq: pair.repl.AppliedSeq, WaitSeq: pair.repl.WaitApplied,
		Lag: func() int64 { return pair.repl.Status().LagRecords },
	})
	u.fseam = &seamHandler{inner: fsrv}
	u.follower = httptest.NewServer(u.fseam)
	for c := range u.conns {
		u.conns[c] = newConn()
	}
	u.hunter = newReqGen(u.model, u.seed, 1, false)
	u.writer = newWriteGen(u.model, u.seed, u.batchRows)
	u.chk = newChecker(u.model, pair.ldb.Store(), u.index)
	return nil
}

func (u *underHunt) teardown() {
	for _, c := range u.conns {
		if c != nil {
			c.close()
		}
	}
	if u.follower != nil {
		u.follower.Close()
	}
	if u.pair != nil {
		u.pair.close()
	}
	*u = underHunt{seed: u.seed, size: u.size, dir: u.dir, batchRows: u.batchRows, every: u.every, setups: u.setups}
}

func (u *underHunt) streamHash() string {
	var h streamHash
	g := newWriteGen(u.model, u.seed, u.batchRows)
	for i := 0; i < 20; i++ {
		b := g.next()
		h.add(string(b.body))
	}
	return h.String() + "/" + requestStreamHash(u.model, u.seed, false, 2000)
}

// --- the writer's batches ---

type writeBatch struct {
	body     []byte
	batch    []any // the $batch binding: one map[string]any{"ip", "seen"} per row
	lastIP   string
	lastSeen string
}

// writeGen draws the writer's batches from the seed: seven rows in ten
// name an IP kg-100k already holds (Zipf over the IPs, so hubs the
// hunter reads are rewritten most), three name a new one.
type writeGen struct {
	m       *kgModel
	rng     *rand.Rand
	rows    int
	ips     []int32 // IOC ranks labelled IP
	ipZ     zipf
	batches int
	newKeys int
	tag     string
}

func newWriteGen(m *kgModel, seed int64, rows int) *writeGen {
	rng := rand.New(rand.NewSource(seed*15485863 + 29))
	g := &writeGen{m: m, rng: rng, rows: rows, tag: fmt.Sprintf("%04x", uint16(seed*40503))}
	for i, l := range m.iocLabel {
		if l == "IP" {
			g.ips = append(g.ips, int32(i))
		}
	}
	g.ipZ = newZipf(rng, len(g.ips))
	return g
}

func (g *writeGen) next() *writeBatch {
	g.batches++
	b := &writeBatch{lastSeen: fmt.Sprintf("b%d", g.batches), batch: make([]any, g.rows)}
	for i := range b.batch {
		var ip string
		if g.rng.Intn(10) < 7 {
			ip = g.m.iocs[g.ips[g.ipZ.next()]]
		} else {
			g.newKeys++
			ip = fmt.Sprintf("198.18.%s.%d", g.tag, g.newKeys)
		}
		b.batch[i] = map[string]any{"ip": ip, "seen": b.lastSeen}
		b.lastIP = ip
	}
	b.body = cypherBody(qWriteBatch, map[string]any{"batch": b.batch}, false)
	return b
}

// writeLoop is the writer's closed loop.
func (u *underHunt) writeLoop(deadline time.Time, tr *tracer, out *driveStats, w *writeStats) {
	c := u.conns[0]
	for n := 0; time.Now().Before(deadline); n++ {
		b := u.writer.next()
		ref, id := "", 0
		if tr != nil {
			ref = fmt.Sprintf("w-%d", n)
			id = tr.begin("client.request.write-batch", ref, 0)
		}
		resp, err := c.do(u.pair.leader.URL, &request{class: "write-batch", method: "POST", path: "/api/cypher", body: b.body}, id, ref)
		tr.end(id)
		acked := time.Now()
		out.mu.Lock()
		out.attempted++
		out.perClass["write-batch"]++
		out.noteStatus(resp.status)
		out.mu.Unlock()
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		if err == nil && resp.status != http.StatusOK {
			err = statusErr("write-batch", resp)
		}
		if err == nil {
			if err = json.Unmarshal(resp.body, &ack); err == nil && ack.Seq == 0 {
				err = fmt.Errorf("write-batch: no seq in the acknowledgement: %.200s", resp.body)
			}
		}
		if err != nil {
			out.fail(err)
			continue
		}
		w.write.add(resp.total)

		// Read the batch's last row back from the follower: visible only
		// once the follower has applied the acknowledged seq.
		body, _ := json.Marshal(map[string]any{"query": qVisible, "params": map[string]any{"ip": b.lastIP}, "min_seq": ack.Seq})
		id = 0
		if tr != nil {
			id = tr.begin("client.request.visible", ref, 0)
		}
		vresp, err := c.do(u.follower.URL, &request{class: "visible", method: "POST", path: "/api/cypher", body: body}, id, ref)
		tr.end(id)
		out.mu.Lock()
		out.attempted++
		out.noteStatus(vresp.status)
		out.mu.Unlock()
		if err == nil && vresp.status != http.StatusOK {
			err = statusErr("visible", vresp)
		}
		if err == nil {
			var rows [][]string
			if rows, err = rowsOf(vresp.body); err == nil && (len(rows) != 1 || rows[0][0] != b.lastSeen) {
				err = fmt.Errorf("follower read of %s at min_seq=%d: got %v, want [[%s]]", b.lastIP, ack.Seq, rows, b.lastSeen)
			}
		}
		if err != nil {
			out.fail(err)
			continue
		}
		w.visible.add(time.Since(acked))
		w.rows += int64(len(b.batch))
	}
}

type writeStats struct {
	write, visible latencies
	rows           int64
}

func (u *underHunt) drive(dur time.Duration, tr *tracer) (*driveStats, error) {
	out := newDriveStats()
	var w writeStats
	u.lseam.tr.Store(tr)
	u.fseam.tr.Store(tr)
	u.lseam.bytes.Store(0)
	u.chk.resetFirst()
	cache0 := u.chk.eng.PlanCacheStats()
	before := scrape()
	st := u.pair.ldb.Store()
	sv0 := st.StatsVersion()

	// Sample what only shows while the run is going — retained MVCC
	// versions and the follower's lag — and checkpoint the leader on
	// schedule.
	stop := make(chan struct{})
	var versionsPeak, lagMax int64
	var checkpointErr error
	var swg sync.WaitGroup
	swg.Add(2)
	go func() {
		defer swg.Done()
		// The first checkpoint fires half a period in, so none is due at
		// the moment the run ends: every run of one length has the same
		// number of them.
		next := time.NewTimer(u.every / 2)
		defer next.Stop()
		for {
			select {
			case <-stop:
				return
			case <-next.C:
				began := time.Now()
				if err := u.pair.ldb.Checkpoint(); err != nil {
					checkpointErr = err
					return
				}
				next.Reset(max(u.every-time.Since(began), 0))
			}
		}
	}()
	go func() {
		defer swg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mv := st.MVCCStats()
				versionsPeak = max(versionsPeak, int64(mv.NodeVersions+mv.EdgeVersions))
				lagMax = max(lagMax, int64(u.pair.ldb.LastSeq())-int64(u.pair.repl.AppliedSeq()))
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); u.writeLoop(deadline, tr, out, &w) }()
	go func() {
		defer wg.Done()
		readLoop(u.conns[1], u.pair.leader.URL, u.hunter, u.chk, deadline, tr, 1, out)
	}()
	wg.Wait()
	out.wall = time.Since(start)
	close(stop)
	swg.Wait()
	if checkpointErr != nil {
		return nil, fmt.Errorf("scheduled checkpoint: %w", checkpointErr)
	}
	u.lseam.tr.Store(nil)
	u.fseam.tr.Store(nil)
	out.bytesOut = u.lseam.bytes.Load()
	cache1 := u.chk.eng.PlanCacheStats()
	out.planHits, out.planMisses = cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses

	// Throughput is the writer's (rows acknowledged by the leader and
	// read back from the follower), latency the hunter's: each side's
	// number is where a gain on the other side would show as a loss.
	out.throughput = float64(w.rows) / out.wall.Seconds()
	out.headline = &out.reads
	secs := out.wall.Seconds()
	out.extra["e2e.write_rows_per_s"] = out.throughput
	out.extra["e2e.write_p50_ms"] = w.write.percentileMs(50)
	out.extra["e2e.write_tail_ms"], _ = w.write.tailMs()
	out.extra["e2e.replica_visible_p50_ms"] = w.visible.percentileMs(50)
	out.extra["e2e.replica_visible_tail_ms"], _ = w.visible.tailMs()
	out.extra["e2e.read_qps"] = float64(out.reads.count()) / secs
	out.extra["e2e.read_p50_ms"] = out.reads.percentileMs(50)
	out.extra["graph.mvcc_versions_peak"] = float64(versionsPeak)
	out.extra["graph.stats_version_bumps"] = float64(st.StatsVersion() - sv0)
	out.extra["replication.lag_records_max"] = float64(lagMax)
	after := scrape()
	delta := func(name string) float64 { return after[name] - before[name] }
	out.extra["storage.fsyncs"] = delta("skg_wal_fsyncs_total")
	out.extra["storage.checkpoints"] = delta("skg_checkpoints_total")
	if n := delta("skg_checkpoint_seconds_count"); n > 0 {
		out.extra["storage.checkpoint_s"] = delta("skg_checkpoint_seconds_sum") / n
	}
	if n := delta("skg_wal_appends_total"); n > 0 {
		out.extra["storage.wal_bytes_per_record"] = delta("skg_wal_bytes_total") / n
	}
	out.extra["replication.frames_shipped"] = delta("skg_replication_frames_shipped_total")
	out.extra["replication.records_applied"] = delta("skg_replication_records_applied_total")
	out.extra["replication.reconnects"] = delta("skg_replication_reconnects_total")
	return out, nil
}

func (u *underHunt) check() []string {
	var bad []string
	ldb, fdb := u.pair.ldb, u.pair.fdb
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := u.pair.repl.WaitApplied(ctx, ldb.LastSeq()); err != nil {
		return append(bad, fmt.Sprintf("follower never drained to seq %d: %v", ldb.LastSeq(), err))
	}
	if err := ldb.Err(); err != nil {
		bad = append(bad, fmt.Sprintf("leader durability error: %v", err))
	}
	if got, want := ldb.Store().CountByType("IP"), u.size.ips+u.writer.newKeys; got != want {
		bad = append(bad, fmt.Sprintf("leader holds %d IPs, want %d (kg %d + %d new keys sent)", got, want, u.size.ips, u.writer.newKeys))
	}
	var lh, fh string
	var lerr, ferr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); lh, lerr = saveHash(ldb.Store()) }()
	go func() { defer wg.Done(); fh, ferr = saveHash(fdb.Store()) }()
	wg.Wait()
	if lerr != nil || ferr != nil || lh != fh {
		bad = append(bad, fmt.Sprintf("follower state differs from leader after drain (%v %v)", lerr, ferr))
	}
	for name, st := range map[string]*graph.Store{"leader": ldb.Store(), "follower": fdb.Store()} {
		if mv := st.MVCCStats(); mv != (graph.MVCCStats{}) {
			bad = append(bad, fmt.Sprintf("%s MVCC state not purged: %+v", name, mv))
		}
	}
	if !strings.Contains(u.lsrv.Metrics(), "skg_ingest_inflight_bytes 0\n") {
		bad = append(bad, "leader's in-flight ingest gauge is not zero at rest")
	}
	return bad
}
