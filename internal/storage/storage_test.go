package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securitykg/internal/graph"
)

// mutGen deterministically generates a stream of store operations that
// exercises every WAL record type. Applying the same seed's stream to
// any store yields the same state, which is what the crash tests lean
// on: the surviving log prefix must equal a prefix of this stream.
type mutGen struct {
	rng   *rand.Rand
	nodes []graph.NodeID
	edges []graph.EdgeID
}

func newMutGen(seed int64) *mutGen { return &mutGen{rng: rand.New(rand.NewSource(seed))} }

var genTypes = []string{"Malware", "IP", "Tool", "ThreatActor"}
var genEdgeTypes = []string{"CONNECT", "USE", "DROP"}

// mutStore is the surface step drives: the bare store (bareWrites) or an
// open transaction (txWrites) — the generator's streams work identically
// through both.
type mutStore interface {
	MergeNode(typ, name string, attrs map[string]string) (graph.NodeID, bool)
	AddEdge(from graph.NodeID, typ string, to graph.NodeID, attrs map[string]string) (graph.EdgeID, bool, error)
	SetAttr(id graph.NodeID, key, val string) error
	DeleteNode(id graph.NodeID) error
	DeleteEdge(id graph.EdgeID) error
	MigrateEdges(from, to graph.NodeID) error
}

// bareWrites issues the writes MergeNode and AddEdge do not cover as the
// one-mutation Store.Apply that replay uses, which logs what a Tx write
// of the same op logs. A node delete detaches.
type bareWrites struct{ *graph.Store }

func (w bareWrites) SetAttr(id graph.NodeID, key, val string) error {
	return w.Apply(graph.Mutation{Op: graph.OpSetAttr, Node: id, Key: key, Val: val})
}

func (w bareWrites) DeleteNode(id graph.NodeID) error {
	return w.Apply(graph.Mutation{Op: graph.OpDeleteNode, Node: id})
}

func (w bareWrites) DeleteEdge(id graph.EdgeID) error {
	return w.Apply(graph.Mutation{Op: graph.OpDeleteEdge, Edge: id})
}

func (w bareWrites) MigrateEdges(from, to graph.NodeID) error {
	return w.Apply(graph.Mutation{Op: graph.OpMigrateEdges, From: from, To: to})
}

// txWrites gives an open transaction the bare store's write signatures,
// dropping each write's effect as the bare writes do.
type txWrites struct{ tx *graph.Tx }

func (w txWrites) MergeNode(typ, name string, attrs map[string]string) (graph.NodeID, bool) {
	ef := w.tx.MergeNode(typ, name, attrs)
	return ef.Node.ID, ef.Created
}

func (w txWrites) AddEdge(from graph.NodeID, typ string, to graph.NodeID, attrs map[string]string) (graph.EdgeID, bool, error) {
	ef, err := w.tx.AddEdge(from, typ, to, attrs)
	if err != nil {
		return 0, false, err
	}
	return ef.Edge.ID, ef.Created, nil
}

func (w txWrites) SetAttr(id graph.NodeID, key, val string) error {
	_, err := w.tx.SetAttr(id, key, val)
	return err
}

func (w txWrites) DeleteNode(id graph.NodeID) error {
	_, err := w.tx.DeleteNode(id, true)
	return err
}

func (w txWrites) DeleteEdge(id graph.EdgeID) error         { return w.tx.DeleteEdge(id) }
func (w txWrites) MigrateEdges(from, to graph.NodeID) error { return w.tx.MigrateEdges(from, to) }

// step applies one random operation to st. Operations are chosen so the
// store keeps growing (deletes are rarer than creates) and so every
// mutation op appears.
func (g *mutGen) step(st mutStore) {
	r := g.rng.Intn(100)
	switch {
	case r < 45 || len(g.nodes) < 2:
		typ := genTypes[g.rng.Intn(len(genTypes))]
		name := typ + "-" + string(rune('a'+g.rng.Intn(26))) + string(rune('a'+g.rng.Intn(26)))
		var attrs map[string]string
		if g.rng.Intn(2) == 0 {
			attrs = map[string]string{"seen": string(rune('0' + g.rng.Intn(10)))}
		}
		id, created := st.MergeNode(typ, name, attrs)
		if created {
			g.nodes = append(g.nodes, id)
		}
	case r < 75:
		from := g.nodes[g.rng.Intn(len(g.nodes))]
		to := g.nodes[g.rng.Intn(len(g.nodes))]
		et := genEdgeTypes[g.rng.Intn(len(genEdgeTypes))]
		if id, created, err := st.AddEdge(from, et, to, nil); err == nil && created {
			g.edges = append(g.edges, id)
		}
	case r < 85:
		id := g.nodes[g.rng.Intn(len(g.nodes))]
		st.SetAttr(id, "score", string(rune('0'+g.rng.Intn(10))))
	case r < 90 && len(g.edges) > 0:
		i := g.rng.Intn(len(g.edges))
		st.DeleteEdge(g.edges[i])
		g.edges = append(g.edges[:i], g.edges[i+1:]...)
	case r < 95 && len(g.nodes) > 4:
		i := g.rng.Intn(len(g.nodes))
		st.DeleteNode(g.nodes[i])
		g.nodes = append(g.nodes[:i], g.nodes[i+1:]...)
	case len(g.nodes) > 2:
		st.MigrateEdges(g.nodes[g.rng.Intn(len(g.nodes))], g.nodes[g.rng.Intn(len(g.nodes))])
	}
}

func saveBytes(t *testing.T, st *graph.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.Save(&b); err != nil {
		t.Fatalf("save: %v", err)
	}
	return b.Bytes()
}

// findNode reads the committed state through a snapshot held only for the
// read.
func findNode(s *graph.Store, typ, name string) *graph.Node {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.FindNode(typ, name)
}

func openT(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

// TestDurableRoundTrip: mutations applied to an open DB survive a
// close/reopen cycle exactly, via WAL replay alone (no checkpoint).
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	g := newMutGen(1)
	for i := 0; i < 500; i++ {
		g.step(bareWrites{db.Store()})
	}
	want := saveBytes(t, db.Store())
	wantSeq := db.LastSeq()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	defer db2.Close()
	if got := saveBytes(t, db2.Store()); !bytes.Equal(got, want) {
		t.Fatalf("recovered store differs from pre-close store")
	}
	if db2.Recovered.Replayed == 0 || db2.LastSeq() != wantSeq {
		t.Fatalf("recovery info: %+v lastSeq=%d want %d", db2.Recovered, db2.LastSeq(), wantSeq)
	}
	if db2.Recovered.TornTail {
		t.Fatalf("clean close reported a torn tail")
	}
}

// TestTornTailEveryOffset is the kill-at-any-byte-offset property: for a
// WAL truncated at every possible byte offset, recovery must yield
// exactly the fold of the record prefix that fully survived — compared
// byte-for-byte via Save — and must leave the directory writable, and
// binary. An earlier build's recorded log, cut the same way, is refused
// (testEarlierLogEveryOffset).
func TestTornTailEveryOffset(t *testing.T) {
	t.Run("binary", testTornTailEveryOffset)
	t.Run("json", func(t *testing.T) { testEarlierLogEveryOffset(t, earlierDirs[0].dir, false) })
	t.Run("skgwal2", func(t *testing.T) { testEarlierLogEveryOffset(t, earlierDirs[1].dir, false) })
}

func testTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	g := newMutGen(2)
	for i := 0; i < 40; i++ {
		g.step(bareWrites{db.Store()})
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries, from a clean scan.
	full := scanWAL(bytes.NewReader(walBytes))
	if full.torn || len(full.records) == 0 {
		t.Fatalf("clean log scans torn=%v records=%d", full.torn, len(full.records))
	}

	// Expected Save bytes after each record prefix (prefixSave[k] = fold
	// of the first k records into a fresh store). Record boundaries start
	// after the file magic.
	hdrLen := int64(len(walMagic))
	prefixSave := make([][]byte, len(full.records)+1)
	ref := graph.New()
	prefixSave[0] = saveBytes(t, ref)
	bounds := make([]int64, len(full.records)+1)
	bounds[0] = hdrLen
	for i, rec := range full.records {
		if err := ref.Apply(rec.Mutation()); err != nil {
			t.Fatalf("apply record %d: %v", i, err)
		}
		prefixSave[i+1] = saveBytes(t, ref)
		bounds[i+1] = bounds[i] + int64(recordHeaderLen+recordPayloadLen(t, walBytes, bounds[i]))
	}

	// Every offset is ~3k recoveries; cover all record boundaries plus a
	// stride over intra-record offsets under -short.
	step := 1
	if testing.Short() {
		step = 11
	}
	for cut := 0; cut <= len(walBytes); cut += step {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walFile), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := Open(sub, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		// How many records fully fit in the first cut bytes?
		k := 0
		for k < len(full.records) && bounds[k+1] <= int64(cut) {
			k++
		}
		if got := saveBytes(t, rdb.Store()); !bytes.Equal(got, prefixSave[k]) {
			t.Fatalf("cut=%d: recovered store is not the %d-record prefix fold", cut, k)
		}
		// The truncated directory must accept new writes cleanly.
		rdb.Store().MergeNode("Post", "recovery", nil)
		if err := rdb.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		requireBinaryDir(t, sub)
		rdb2, err := Open(sub, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("cut=%d: reopen after post-recovery write: %v", cut, err)
		}
		if findNode(rdb2.Store(), "Post", "recovery") == nil {
			t.Fatalf("cut=%d: post-recovery write lost", cut)
		}
		rdb2.Close()
	}
}

// testEarlierLogEveryOffset cuts the recorded wal.log of the earlier
// build's directory src at every byte offset and opens it — alone, or
// with the directory's snapshot beside it. A cut that leaves a proper
// prefix of walMagic is an empty log, as a crash while this build created
// the file would leave one: it opens, to the snapshot's store, unless the
// snapshot is a JSON-era one. Every other cut is refused and left as it
// was: an earlier build's torn log is never read as a torn log of this
// one, and never emptied.
func testEarlierLogEveryOffset(t *testing.T, src string, withSnapshot bool) {
	walBytes := readOracleFile(t, src, walFile)
	files := map[string][]byte{}
	snapshot := snapshotBinFile
	if withSnapshot {
		if _, err := os.Stat(filepath.Join(src, jsonSnapshotFile)); err == nil {
			snapshot = jsonSnapshotFile
		}
		files[snapshot] = readOracleFile(t, src, snapshot)
	}
	step := 1
	if testing.Short() {
		step = 11
	}
	opened := 0
	for cut := 0; cut <= len(walBytes); cut += step {
		dir := t.TempDir()
		files[walFile] = walBytes[:cut]
		writeFiles(t, dir, files)
		if cut >= len(walMagic) || !strings.HasPrefix(walMagic, string(walBytes[:cut])) || snapshot == jsonSnapshotFile {
			refused := walFile
			if snapshot == jsonSnapshotFile {
				refused = jsonSnapshotFile
			}
			if err := checkRefused(t, dir, refused, ""); err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			continue
		}
		db, err := Open(dir, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("cut=%d: a log cut inside the magic is refused: %v", cut, err)
		}
		if db.Recovered.Replayed != 0 || (db.Recovered.SnapshotSeq != 0) != withSnapshot {
			t.Fatalf("cut=%d: recovery %+v, want the snapshot alone", cut, db.Recovered)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		requireBinaryDir(t, dir)
		opened++
	}
	if opened == 0 && snapshot != jsonSnapshotFile {
		t.Fatal("no cut opened as an empty log")
	}
}

// recordPayloadLen reads the length prefix of the record starting at off.
func recordPayloadLen(t *testing.T, wal []byte, off int64) int {
	t.Helper()
	if off+recordHeaderLen > int64(len(wal)) {
		t.Fatalf("record header out of range at %d", off)
	}
	return int(uint32(wal[off]) | uint32(wal[off+1])<<8 | uint32(wal[off+2])<<16 | uint32(wal[off+3])<<24)
}

// TestCheckpoint: a checkpoint truncates the WAL, recovery prefers the
// snapshot, and records already covered by the snapshot are skipped if
// a crash leaves them in the log (the rename-before-truncate window).
func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	g := newMutGen(3)
	for i := 0; i < 200; i++ {
		g.step(bareWrites{db.Store()})
	}
	preWal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if db.WALSize() != int64(len(walMagic)) {
		t.Fatalf("WAL not truncated after checkpoint: %d bytes", db.WALSize())
	}
	for i := 0; i < 50; i++ {
		g.step(bareWrites{db.Store()})
	}
	want := saveBytes(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	if db2.Recovered.SnapshotSeq == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", db2.Recovered)
	}
	if got := saveBytes(t, db2.Store()); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint+tail recovery differs")
	}
	db2.Close()

	// Crash window: snapshot renamed but WAL never truncated. In that
	// world the log is one continuous file: the pre-checkpoint records,
	// then the tail's.
	tail, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	writeFiles(t, dir, map[string][]byte{walFile: append(preWal, tail[len(walMagic):]...)})
	db3 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	if got := saveBytes(t, db3.Store()); !bytes.Equal(got, want) {
		t.Fatalf("recovery with untruncated WAL differs (snapshot-covered records re-applied?)")
	}
	db3.Close()
}

// TestCompactionTrigger: the WAL self-compacts once it crosses the
// configured threshold.
func TestCompactionTrigger(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: 4096})
	g := newMutGen(4)
	deadline := time.Now().Add(5 * time.Second)
	compacted := false
	for time.Now().Before(deadline) {
		for i := 0; i < 50; i++ {
			g.step(bareWrites{db.Store()})
		}
		if _, err := os.Stat(filepath.Join(dir, snapshotBinFile)); err == nil {
			compacted = true
			break
		}
	}
	if !compacted {
		t.Fatalf("no snapshot appeared after sustained writes past the threshold")
	}
	want := saveBytes(t, db.Store())
	if err := db.Err(); err != nil {
		t.Fatalf("durability error: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	defer db2.Close()
	if got := saveBytes(t, db2.Store()); !bytes.Equal(got, want) {
		t.Fatalf("post-compaction recovery differs")
	}
}

// TestSyncPolicies: the flag parser and the always/interval paths.
func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"interval", SyncInterval, false},
		{"", SyncInterval, false},
		{"never", SyncNever, false},
		{"sometimes", 0, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.err || (err == nil && got != tc.want) {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval} {
		dir := t.TempDir()
		db := openT(t, dir, Options{Sync: pol, CompactBytes: -1})
		db.Store().MergeNode("A", "x", nil)
		if err := db.Sync(); err != nil {
			t.Fatalf("%v: sync: %v", pol, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%v: close: %v", pol, err)
		}
		db2 := openT(t, dir, Options{CompactBytes: -1})
		if findNode(db2.Store(), "A", "x") == nil {
			t.Fatalf("%v: write lost", pol)
		}
		db2.Close()
	}
}

// TestOpenRejectsForeignSnapshot: a non-snapshot file fails loudly.
func TestOpenRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotBinFile), []byte("{\"magic\":\"nope\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a foreign snapshot")
	}
}

// TestOversizeRecordRejected: a mutation whose record would exceed the
// reader's size bound is refused at append time (never acknowledged
// into a log that recovery would have to discard), the error is sticky
// and visible, and a checkpoint re-bases durability past the gap —
// clearing the error and preserving every mutation across reopen.
func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	db.Store().MergeNode("A", "before", nil)
	huge := make([]byte, maxRecordLen+1024)
	for i := range huge {
		huge[i] = 'x'
	}
	db.Store().MergeNode("A", "oversize", map[string]string{"blob": string(huge)})
	if db.Err() == nil {
		t.Fatal("oversize record was accepted without error")
	}
	db.Store().MergeNode("A", "after", nil) // store runs ahead of the log
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("re-basing checkpoint: %v", err)
	}
	if err := db.Err(); err != nil {
		t.Fatalf("sticky error survived a covering checkpoint: %v", err)
	}
	db.Store().MergeNode("A", "resumed", nil) // appends work again
	if err := db.Err(); err != nil {
		t.Fatalf("append after re-base: %v", err)
	}
	want := saveBytes(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	defer db2.Close()
	if got := saveBytes(t, db2.Store()); !bytes.Equal(got, want) {
		t.Fatal("state lost across the oversize-record gap")
	}
	for _, name := range []string{"before", "oversize", "after", "resumed"} {
		if findNode(db2.Store(), "A", name) == nil {
			t.Fatalf("node %q lost", name)
		}
	}
}

// TestSingleOwnerLock: a data directory can only be opened by one
// process/handle at a time; Close releases the lock.
func TestSingleOwnerLock(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	if _, err := Open(dir, Options{Sync: SyncNever, CompactBytes: -1}); err == nil {
		t.Fatal("second Open on a held data directory succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	db2.Close()
}
