package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"securitykg/internal/backoff"
	"securitykg/internal/graph"
	"securitykg/internal/storage"
)

// ---- helpers ----

func openDB(t *testing.T, dir string, opts storage.Options) *storage.DB {
	t.Helper()
	db, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

func saveBytes(t *testing.T, st *graph.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.Save(&b); err != nil {
		t.Fatalf("save: %v", err)
	}
	return b.Bytes()
}

// leaderServer mounts a Leader over db on a live HTTP listener.
func leaderServer(t *testing.T, db *storage.DB) *httptest.Server {
	t.Helper()
	l := &Leader{DB: db, HeartbeatEvery: 50 * time.Millisecond}
	mux := http.NewServeMux()
	l.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// fastBackoff keeps reconnect-heavy tests quick.
func fastBackoff() *backoff.Policy {
	return &backoff.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Factor: 2, Jitter: 0.5}
}

// startFollower bootstraps dir from the leader, opens it, and starts a
// replicator tailing in the background.
func startFollower(t *testing.T, dir, leaderURL string) (*storage.DB, *Replicator, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	bctx, bcancel := context.WithTimeout(ctx, 30*time.Second)
	if err := Bootstrap(bctx, dir, leaderURL, nil, nil); err != nil {
		bcancel()
		cancel()
		t.Fatalf("bootstrap: %v", err)
	}
	bcancel()
	db := openDB(t, dir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	repl := NewReplicator(db, leaderURL)
	repl.Backoff = fastBackoff()
	done := make(chan error, 1)
	go func() { done <- repl.Run(ctx) }()
	stopped := false
	stop := func() error {
		stopped = true
		cancel()
		err := <-done
		db.Close()
		return err
	}
	t.Cleanup(func() {
		if stopped {
			return
		}
		cancel()
		<-done
		db.Close()
	})
	return db, repl, stop
}

// writer drives a deterministic mutation mix — bare records and
// multi-mutation transaction groups — against a store.
type writer struct {
	rng   *rand.Rand
	nodes []graph.NodeID
	n     int
}

func newWriter(seed int64) *writer { return &writer{rng: rand.New(rand.NewSource(seed))} }

var wTypes = []string{"Malware", "IP", "Tool", "ThreatActor"}

func (w *writer) name() string {
	return string(rune('a'+w.rng.Intn(26))) + string(rune('a'+w.rng.Intn(26))) + string(rune('0'+w.rng.Intn(10)))
}

func (w *writer) step(st *graph.Store) {
	w.n++
	if w.rng.Intn(4) == 0 && len(w.nodes) >= 2 {
		// Multi-mutation transaction: merges plus an edge, committed as
		// one WAL group.
		tx := st.BeginTx()
		var created []graph.NodeID
		for i := 0; i < 2+w.rng.Intn(3); i++ {
			typ := wTypes[w.rng.Intn(len(wTypes))]
			id, ok := tx.MergeNode(typ, typ+"-"+w.name(), map[string]string{"round": w.name()})
			if ok {
				created = append(created, id)
			}
		}
		if len(created) >= 2 {
			tx.AddEdge(created[0], "USE", created[1], nil)
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
		w.nodes = append(w.nodes, created...)
		return
	}
	switch r := w.rng.Intn(100); {
	case r < 50 || len(w.nodes) < 2:
		typ := wTypes[w.rng.Intn(len(wTypes))]
		id, ok := st.MergeNode(typ, typ+"-"+w.name(), nil)
		if ok {
			w.nodes = append(w.nodes, id)
		}
	case r < 80:
		from := w.nodes[w.rng.Intn(len(w.nodes))]
		to := w.nodes[w.rng.Intn(len(w.nodes))]
		st.AddEdge(from, "CONNECT", to, nil)
	case r < 92:
		st.SetAttr(w.nodes[w.rng.Intn(len(w.nodes))], "score", w.name())
	default:
		if len(w.nodes) > 4 {
			i := w.rng.Intn(len(w.nodes))
			st.DeleteNode(w.nodes[i])
			w.nodes = append(w.nodes[:i], w.nodes[i+1:]...)
		}
	}
}

// checkCounts requires the follower's live counts — kept by whichever
// path applied the writes — to read exactly the leader's: edges per type,
// and nodes per label for every label the workload writes.
func checkCounts(t *testing.T, leader, follower *graph.Store) {
	t.Helper()
	if got, want := follower.Stats().EdgesByType, leader.Stats().EdgesByType; !maps.Equal(got, want) {
		t.Errorf("follower Stats().EdgesByType = %v, leader %v", got, want)
	}
	for _, label := range append([]string{""}, wTypes...) {
		if got, want := follower.CountByType(label), leader.CountByType(label); got != want {
			t.Errorf("follower CountByType(%q) = %d, leader %d", label, got, want)
		}
	}
}

func waitCaughtUp(t *testing.T, repl *Replicator, seq uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := repl.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("follower never reached seq %d (applied %d): %v", seq, repl.AppliedSeq(), err)
	}
}

// ---- frame codec ----

// recordsFrame commits the given steps on a scratch leader and returns
// the sealed records frame its tail ships for them, with the seq it
// ends on.
func recordsFrame(t testing.TB, steps func(st *graph.Store)) ([]byte, uint64) {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	steps(db.Store())
	buf, n, err := db.TailFrom(1).Next(make([]byte, frameHdrLen), 1<<20)
	if err != nil || uint64(n) != db.LastSeq() {
		t.Fatalf("tail shipped %d records (%v), log is at %d", n, err, db.LastSeq())
	}
	return sealFrame(buf, frameRecords), uint64(n)
}

func TestFrameRoundTrip(t *testing.T) {
	frame, last := recordsFrame(t, func(st *graph.Store) {
		st.MergeNode("Malware", "x", map[string]string{"a": "1", "ключ": "значение"})
		tx := st.BeginTx()
		tx.MergeNode("IP", "10.0.0.1", nil)
		tx.MergeNode("IP", "10.0.0.2", nil)
		tx.Commit()
	})
	stream := append(append([]byte{}, frame...), heartbeatFrame(nil, 9, 1024)...)
	fr := newFrameReader(bytes.NewReader(stream))
	kind, body, err := fr.next()
	if err != nil || kind != frameRecords {
		t.Fatalf("first frame: kind %d, %v", kind, err)
	}
	var (
		rec storage.Record
		ops []graph.MutationOp
	)
	for len(body) > 0 {
		payload, rest, op, err := storage.NextWire(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.DecodeWire(payload, &rec, nil); err != nil {
			t.Fatal(err)
		}
		if rec.Op != op || rec.Seq != uint64(len(ops)+1) {
			t.Fatalf("record %d decoded as seq %d %s (peeked %s)", len(ops)+1, rec.Seq, rec.Op, op)
		}
		if rec.Seq == 1 && (rec.Name != "x" || rec.Attrs["a"] != "1" || rec.Attrs["ключ"] != "значение") {
			t.Fatalf("record did not round-trip: %+v", rec)
		}
		ops, body = append(ops, op), rest
	}
	want := []graph.MutationOp{graph.OpMergeNode, graph.OpTxBegin, graph.OpMergeNode, graph.OpMergeNode, graph.OpTxCommit}
	if !slices.Equal(ops, want) || last != 5 {
		t.Fatalf("frame carried %v through seq %d, want %v", ops, last, want)
	}
	kind, body, err = fr.next()
	if err != nil || kind != frameHeartbeat {
		t.Fatalf("heartbeat frame: kind %d, %v", kind, err)
	}
	if committed, walBytes, err := parseHeartbeat(body); err != nil || committed != 9 || walBytes != 1024 {
		t.Fatalf("heartbeat = (%d, %d, %v)", committed, walBytes, err)
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	b, _ := recordsFrame(t, func(st *graph.Store) { st.MergeNode("IP", "y", nil) })
	next := func(b []byte) error {
		_, _, err := newFrameReader(bytes.NewReader(b)).next()
		return err
	}
	flipped := append([]byte{}, b...)
	flipped[len(flipped)-1] ^= 0xff // payload corruption: CRC must catch it
	if err := next(flipped); !errors.Is(err, errBadFrame) {
		t.Fatalf("corrupt payload: got %v, want errBadFrame", err)
	}
	// Truncation mid-frame reads as a clean end (the follower re-dials).
	if err := next(b[:len(b)-3]); err != io.EOF {
		t.Fatalf("truncated frame: got %v, want io.EOF", err)
	}
	// A kind this build does not know is refused even with a good CRC...
	unknown := sealFrame(append(make([]byte, frameHdrLen), "body"...), 7)
	if err := next(unknown); !errors.Is(err, errBadFrame) {
		t.Fatalf("unknown kind: got %v, want errBadFrame", err)
	}
	// ...and the format this one replaced is refused by name: its frames
	// were length, CRC, then a JSON object.
	legacy := append(make([]byte, frameHdrLen-1), `{"hb":{"committed":9,"wal_bytes":1024}}`...)
	binary.LittleEndian.PutUint32(legacy[0:4], uint32(len(legacy)-8))
	binary.LittleEndian.PutUint32(legacy[4:8], crc32.ChecksumIEEE(legacy[8:]))
	if err := next(legacy); !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), "upgrade leader and followers together") {
		t.Fatalf("legacy JSON frame: got %v", err)
	}
	// A records body must parse to its last byte: what is left over
	// after whole records is damage, not padding.
	fdb := openDB(t, t.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	defer fdb.Close()
	if err := NewReplicator(fdb, "").handleRecords(append(b[frameHdrLen:len(b):len(b)], 0)); !errors.Is(err, errBadFrame) {
		t.Fatalf("records body with a trailing byte: got %v, want errBadFrame", err)
	}
	// Heartbeats are exactly two uvarints.
	for _, body := range [][]byte{{}, {9}, {9, 1, 0}, {0x80}} {
		if _, _, err := parseHeartbeat(body); !errors.Is(err, errBadFrame) {
			t.Fatalf("heartbeat body %v: got %v, want errBadFrame", body, err)
		}
	}
}

// ---- end-to-end streaming ----

// TestReplicateConverges is the core property: a follower bootstrapped
// from a snapshot and tailing the WAL stream converges to the leader's
// exact state — Save output byte-identical, WAL positions equal —
// through bare records and transaction groups alike, including writes
// that land while the stream is live.
func TestReplicateConverges(t *testing.T) {
	ldir := t.TempDir()
	ldb := openDB(t, ldir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	defer ldb.Close()
	wr := newWriter(42)
	for i := 0; i < 300; i++ {
		wr.step(ldb.Store())
	}
	srv := leaderServer(t, ldb)

	fdb, repl, _ := startFollower(t, t.TempDir(), srv.URL)
	waitCaughtUp(t, repl, ldb.CommittedSeq())
	if got, want := saveBytes(t, fdb.Store()), saveBytes(t, ldb.Store()); !bytes.Equal(got, want) {
		t.Fatalf("follower state differs from leader after catch-up")
	}
	checkCounts(t, ldb.Store(), fdb.Store())

	// Live tail: more writes while the stream is connected.
	for i := 0; i < 200; i++ {
		wr.step(ldb.Store())
	}
	waitCaughtUp(t, repl, ldb.CommittedSeq())
	if got, want := saveBytes(t, fdb.Store()), saveBytes(t, ldb.Store()); !bytes.Equal(got, want) {
		t.Fatalf("follower state differs from leader after live tail")
	}
	checkCounts(t, ldb.Store(), fdb.Store())
	if fdb.LastSeq() != ldb.LastSeq() {
		t.Fatalf("follower WAL at seq %d, leader at %d", fdb.LastSeq(), ldb.LastSeq())
	}
	st := repl.Status()
	if st.Role != "replica" || st.State != "tail" {
		t.Fatalf("unexpected status: %+v", st)
	}
}

// TestFollowerRestartResumes: a follower stopped at an arbitrary point
// resumes from its own durable state — no snapshot re-transfer — and
// converges.
func TestFollowerRestartResumes(t *testing.T) {
	ldir := t.TempDir()
	ldb := openDB(t, ldir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	defer ldb.Close()
	wr := newWriter(7)
	for i := 0; i < 150; i++ {
		wr.step(ldb.Store())
	}
	srv := leaderServer(t, ldb)

	fdir := t.TempDir()
	_, repl, stop := startFollower(t, fdir, srv.URL)
	waitCaughtUp(t, repl, ldb.CommittedSeq())
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	// Leader advances while the follower is down.
	for i := 0; i < 150; i++ {
		wr.step(ldb.Store())
	}

	// Restart: Bootstrap must be a no-op (state exists), the tail
	// resumes from the follower's own WAL position.
	fdb2, repl2, _ := startFollower(t, fdir, srv.URL)
	waitCaughtUp(t, repl2, ldb.CommittedSeq())
	if got, want := saveBytes(t, fdb2.Store()), saveBytes(t, ldb.Store()); !bytes.Equal(got, want) {
		t.Fatalf("restarted follower did not converge")
	}
}

// TestSnapshotRequired: when the leader checkpoints past a stopped
// follower's position, the resumed follower gets the snapshot-required
// rejection and parks stale; wiping its directory and re-bootstrapping
// converges.
func TestSnapshotRequired(t *testing.T) {
	ldir := t.TempDir()
	// A tiny in-memory tail forces the disk path, and the checkpoint
	// truncates the disk too.
	ldb := openDB(t, ldir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1, TailRecords: 4})
	defer ldb.Close()
	wr := newWriter(11)
	for i := 0; i < 100; i++ {
		wr.step(ldb.Store())
	}
	srv := leaderServer(t, ldb)

	fdir := t.TempDir()
	_, repl, stop := startFollower(t, fdir, srv.URL)
	waitCaughtUp(t, repl, ldb.CommittedSeq())
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	for i := 0; i < 100; i++ {
		wr.step(ldb.Store())
	}
	if err := ldb.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 0; i < 20; i++ {
		wr.step(ldb.Store()) // a short post-checkpoint tail
	}

	// Resume: the follower's position predates the re-based WAL.
	fdb2 := openDB(t, fdir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	repl2 := NewReplicator(fdb2, srv.URL)
	repl2.Backoff = fastBackoff()
	err := repl2.Run(context.Background())
	if !errors.Is(err, ErrSnapshotRequired) {
		t.Fatalf("Run = %v, want ErrSnapshotRequired", err)
	}
	if st := repl2.Status(); st.State != "stale" {
		t.Fatalf("state = %q, want stale", st.State)
	}
	fdb2.Close()

	// Operator remedy: wipe and re-bootstrap.
	if err := os.RemoveAll(fdir); err != nil {
		t.Fatal(err)
	}
	fdb3, repl3, _ := startFollower(t, fdir, srv.URL)
	waitCaughtUp(t, repl3, ldb.CommittedSeq())
	if got, want := saveBytes(t, fdb3.Store()), saveBytes(t, ldb.Store()); !bytes.Equal(got, want) {
		t.Fatalf("re-bootstrapped follower did not converge")
	}
}

// TestLagBytesAfterLeaderCheckpoint: a replica N records behind a leader
// whose log a checkpoint has just emptied still reports a byte lag — N
// at the mean wire size of the records it has applied — though the
// leader's log is now smaller than one record.
func TestLagBytesAfterLeaderCheckpoint(t *testing.T) {
	frame, applied := recordsFrame(t, func(st *graph.Store) {
		for i := 0; i < 40; i++ {
			st.MergeNode("IP", "10.0.0."+strconv.Itoa(i), map[string]string{"seen": "1"})
		}
	})
	const behind = 300
	// The heartbeat comes first, so the replica knows how far ahead the
	// leader is by the time it has applied the records.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(heartbeatFrame(nil, applied+behind, int64(len("skgwal3\n"))))
		w.Write(frame)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer srv.Close()
	fdb := openDB(t, t.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	defer fdb.Close()
	repl := NewReplicator(fdb, srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- repl.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitCaughtUp(t, repl, applied)

	st := repl.Status()
	mean := float64(len(frame)-frameHdrLen) / float64(applied)
	if want := behind * mean; st.LagRecords != behind || float64(st.LagBytes) < want/2 || float64(st.LagBytes) > 2*want {
		t.Fatalf("%d records behind at %.1f B/record: status reports %d records, %d bytes", behind, mean, st.LagRecords, st.LagBytes)
	}
}

// TestLeaderRestartMidStream: the leader process goes away mid-stream
// and comes back on the same address (recovering its own state); the
// follower rides it out through reconnect backoff and converges on the
// post-restart writes.
func TestLeaderRestartMidStream(t *testing.T) {
	ldir := t.TempDir()
	ldb := openDB(t, ldir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	wr := newWriter(23)
	for i := 0; i < 100; i++ {
		wr.step(ldb.Store())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	// A plain http.Server whose Close does NOT wait for in-flight
	// handlers: the long-poll stream handler only exits when its client
	// goes away, and the follower reconnects fast enough to race an
	// httptest graceful close.
	startLeader := func(db *storage.DB, l net.Listener) *http.Server {
		mux := http.NewServeMux()
		(&Leader{DB: db, HeartbeatEvery: 50 * time.Millisecond}).Register(mux)
		hs := &http.Server{Handler: mux}
		go hs.Serve(l)
		return hs
	}
	srv := startLeader(ldb, ln)

	fdb, repl, _ := startFollower(t, t.TempDir(), "http://"+addr)
	// Post-bootstrap writes: the follower can only see these over a live
	// tail stream, so catching up proves the stream is established (and
	// the restart below therefore severs it).
	for i := 0; i < 20; i++ {
		wr.step(ldb.Store())
	}
	waitCaughtUp(t, repl, ldb.CommittedSeq())

	// Kill the leader: listener and connections drop at once, the
	// checkpoint-on-shutdown mirrors skg-server's SIGTERM path, then it
	// comes back on the same address with recovered state.
	srv.Close()
	if err := ldb.Checkpoint(); err != nil {
		t.Fatalf("shutdown checkpoint: %v", err)
	}
	if err := ldb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	ldb2 := openDB(t, ldir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	defer ldb2.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := startLeader(ldb2, ln2)
	defer srv2.Close()

	for i := 0; i < 100; i++ {
		wr.step(ldb2.Store())
	}
	waitCaughtUp(t, repl, ldb2.CommittedSeq())
	if got, want := saveBytes(t, fdb.Store()), saveBytes(t, ldb2.Store()); !bytes.Equal(got, want) {
		t.Fatalf("follower did not converge across leader restart")
	}
	if repl.Status().Reconnects == 0 {
		t.Fatalf("expected at least one reconnect, status %+v", repl.Status())
	}
}

// TestBootstrapVerifiesSnapshot: a leader that serves garbage must not
// poison the follower's data directory.
func TestBootstrapVerifiesSnapshot(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not a snapshot"))
	}))
	defer bad.Close()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := Bootstrap(ctx, dir, bad.URL, nil, nil); err == nil {
		t.Fatal("bootstrap accepted a garbage snapshot")
	}
	if storage.HasState(dir) {
		t.Fatal("garbage snapshot left state behind")
	}
	ents, err := os.ReadDir(dir)
	if err == nil {
		for _, e := range ents {
			if filepath.Ext(e.Name()) != ".tmp" && e.Name() != "" {
				t.Fatalf("unexpected file %q installed from garbage stream", e.Name())
			}
		}
	}
}
