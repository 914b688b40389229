package storage

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// This file pins the write path's group economics — one write and one
// fsync decision per committed group — what recovery does with a group a
// flush cut short, and the replication tail's wire form.

// countingWriter counts the writes that reach the log file.
type countingWriter struct {
	w      io.Writer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// commitGroup commits one transaction of n SetAttr mutations on node id.
func commitGroup(t testing.TB, st *graph.Store, id graph.NodeID, n int, tag string) {
	t.Helper()
	tx := st.BeginTx()
	for i := 0; i < n; i++ {
		if _, err := tx.SetAttr(id, "k"+string(rune('a'+i%26)), tag+"-"+string(rune('0'+i%10))+strings.Repeat("x", i/260)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitOneWriteOneFsync: a committed group of ten mutations —
// twelve records — leaves the buffer in one write and, under SyncAlways,
// is fsynced exactly once; a bare record costs the same one and one.
func TestGroupCommitOneWriteOneFsync(t *testing.T) {
	db := openT(t, t.TempDir(), Options{Sync: SyncAlways, CompactBytes: -1})
	defer db.Close()
	id, _ := db.Store().MergeNode("Malware", "m", nil)
	cw := &countingWriter{w: db.wal.f}
	db.wal.mu.Lock()
	if err := db.wal.w.Flush(); err != nil {
		t.Fatal(err)
	}
	db.wal.w.Reset(cw)
	db.wal.mu.Unlock()

	seq, fsyncs := db.LastSeq(), mWALFsyncs.Value()
	commitGroup(t, db.Store(), id, 10, "g")
	if got := db.LastSeq() - seq; got != 12 {
		t.Fatalf("group logged %d records, want 12 (markers included)", got)
	}
	if cw.writes != 1 {
		t.Errorf("a 12-record group reached the file in %d writes, want 1", cw.writes)
	}
	if got := mWALFsyncs.Value() - fsyncs; got != 1 {
		t.Errorf("a 12-record group under SyncAlways fsynced %d times, want 1", got)
	}
	db.Store().Apply(graph.Mutation{Op: graph.OpSetAttr, Node: id, Key: "bare", Val: "1"})
	if cw.writes != 2 || mWALFsyncs.Value()-fsyncs != 2 {
		t.Errorf("a bare record after it: %d writes, %d fsyncs in total, want 2 and 2", cw.writes, mWALFsyncs.Value()-fsyncs)
	}
}

// TestPartialGroupOnDiskIsDiscarded: a group can reach the file before
// its commit marker — the interval sync fires mid-group, or the group
// outgrows the 64 KB buffer. A crash then must cost exactly that group:
// recovery discards it and keeps every acknowledged one.
func TestPartialGroupOnDiskIsDiscarded(t *testing.T) {
	for _, tc := range []struct {
		name string
		muts int  // mutations appended of the group that never commits
		sync bool // push them out the way the interval ticker does
	}{
		{"interval-sync", 5, true},
		{"full-buffer", 4000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
			id, _ := db.Store().MergeNode("Malware", "m", nil)
			commitGroup(t, db.Store(), id, 10, "acked")
			want := saveBytes(t, db.Store())
			ackedSeq := db.LastSeq()
			ackedSize := db.WALSize()

			// The log's half of a commit that dies before its marker.
			db.wal.Append(graph.Mutation{Op: graph.OpTxBegin}, false)
			for i := 0; i < tc.muts; i++ {
				if _, _, err := db.wal.Append(graph.Mutation{Op: graph.OpSetAttr, Node: id, Key: "lost", Val: strings.Repeat("v", 20)}, false); err != nil {
					t.Fatal(err)
				}
			}
			if tc.sync {
				if err := db.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			crashed, err := os.ReadFile(filepath.Join(dir, walFile))
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(crashed)) <= ackedSize {
				t.Fatalf("no part of the open group reached the file (%d bytes, acknowledged prefix is %d)", len(crashed), ackedSize)
			}
			db.Close()

			sub := t.TempDir()
			if err := os.WriteFile(filepath.Join(sub, walFile), crashed, 0o644); err != nil {
				t.Fatal(err)
			}
			rdb := openT(t, sub, Options{Sync: SyncNever, CompactBytes: -1})
			defer rdb.Close()
			if !rdb.Recovered.TornTail || rdb.Recovered.TxDiscarded == 0 {
				t.Errorf("recovery did not report the dangling group: %+v", rdb.Recovered)
			}
			if rdb.LastSeq() != ackedSeq {
				t.Errorf("recovered through seq %d, acknowledged prefix ends at %d", rdb.LastSeq(), ackedSeq)
			}
			if !bytes.Equal(saveBytes(t, rdb.Store()), want) {
				t.Errorf("recovered store is not the acknowledged state")
			}
		})
	}
}

// TestFailedGroupLeavesNoGroupState: an append that fails inside a group
// (here a record past the size limit) must not leave the log or the tail
// believing the group is still open once the re-basing checkpoint has
// cleared the error. The next bare record reaches the file in one write
// with one fsync under SyncAlways, survives a kill, and moves the
// committed watermark; a follower behind the hole is sent for a snapshot
// rather than handed half a group.
func TestFailedGroupLeavesNoGroupState(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncAlways, CompactBytes: -1})
	id, _ := db.Store().MergeNode("Malware", "m", nil)
	acked := db.LastSeq()

	tx := db.Store().BeginTx()
	tx.SetAttr(id, "first", "logged")
	tx.SetAttr(id, "blob", strings.Repeat("x", maxRecordLen+1024)) // fails, sticky
	tx.SetAttr(id, "last", "refused")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Err() == nil {
		t.Fatal("the oversize record was accepted")
	}
	if got := db.CommittedSeq(); got != acked {
		t.Fatalf("committed watermark moved to %d inside a failed group, want %d", got, acked)
	}
	db.compactWG.Wait() // the checkpoint the failure scheduled
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Err(); err != nil {
		t.Fatalf("sticky error survived the covering checkpoint: %v", err)
	}

	cw := &countingWriter{w: db.wal.f}
	db.wal.mu.Lock()
	if err := db.wal.w.Flush(); err != nil { // the fresh file's header
		t.Fatal(err)
	}
	db.wal.w.Reset(cw)
	db.wal.mu.Unlock()
	fsyncs := mWALFsyncs.Value()
	db.Store().Apply(graph.Mutation{Op: graph.OpSetAttr, Node: id, Key: "bare", Val: "after the re-base"})
	if cw.writes != 1 || mWALFsyncs.Value()-fsyncs != 1 {
		t.Errorf("bare record after a failed group: %d writes, %d fsyncs, want 1 and 1", cw.writes, mWALFsyncs.Value()-fsyncs)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(onDisk)) != db.WALSize() || len(onDisk) <= len(walMagic) {
		t.Fatalf("log file holds %d bytes, the WAL counts %d: an acknowledged record is only buffered", len(onDisk), db.WALSize())
	}
	if db.CommittedSeq() != db.LastSeq() {
		t.Errorf("committed watermark %d stalled behind last seq %d", db.CommittedSeq(), db.LastSeq())
	}
	cur := db.TailFrom(acked + 1)
	if _, _, err := cur.Next(nil, 1<<20); err != ErrTailTruncated {
		t.Errorf("cursor across the hole: %v, want ErrTailTruncated", err)
	}
	cur.Close()
	if got := tailRecords(t, db, db.LastSeq(), 1<<20); len(got) != 1 || got[0].Key != "bare" {
		t.Errorf("cursor at the head yielded %+v", got)
	}

	// What a kill now leaves behind recovers to the running store.
	want := saveBytes(t, db.Store())
	sub := t.TempDir()
	for _, name := range []string{snapshotBinFile, walFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	rdb := openT(t, sub, Options{Sync: SyncAlways, CompactBytes: -1})
	defer rdb.Close()
	if !bytes.Equal(saveBytes(t, rdb.Store()), want) {
		t.Error("the acknowledged record after a failed group did not survive a kill")
	}
}

// wireGenRecords is the mutation generators' output as records, plus the
// shapes they do not produce: no attrs, many attrs, empty strings,
// non-ASCII, and the transaction markers.
func wireGenRecords(t *testing.T) []Record {
	st := graph.New()
	var recs []Record
	st.SetMutationHook(func(m graph.Mutation) {
		recs = append(recs, Record{
			Op: m.Op, Type: m.Type, Name: m.Name, Attrs: maps.Clone(m.Attrs),
			From: m.From, To: m.To, Node: m.Node, Edge: m.Edge, Key: m.Key, Val: m.Val,
		})
	})
	tg := newTxMutGen(5)
	for i := 0; i < 200; i++ {
		tg.batch(st)
	}
	st.SetMutationHook(nil)
	recs = append(recs,
		Record{Op: graph.OpMergeNode, Type: "Malware", Name: "emotet"},
		Record{Op: graph.OpMergeNode, Type: "", Name: "", Attrs: map[string]string{"": ""}},
		Record{Op: graph.OpMergeNode, Type: "Вредонос", Name: "名前 \x00\xff", Attrs: map[string]string{
			"ключ": "значение", "family": "trojan", "cve": "CVE-2017-0144", "z": "", "é": "ü"}},
		Record{Op: graph.OpAddEdge, Type: "СВЯЗЬ", From: 1 << 40, To: 2, Attrs: map[string]string{"port": "443", "proto": "tcp"}},
		Record{Op: graph.OpSetAttr, Node: 7, Key: "", Val: ""},
		Record{Op: graph.OpTxBegin}, Record{Op: graph.OpTxCommit}, Record{Op: graph.OpTxRollback},
	)
	for i := range recs {
		recs[i].Seq = uint64(i)*1000 + 1
	}
	return recs
}

// TestWireRoundTrip: decode(encode(r)) == r for every record shape,
// each payload standing alone (nothing carried between them, in any
// order), with and without a reused attribute map, and NextWire naming
// the operation the full decode finds.
func TestWireRoundTrip(t *testing.T) {
	recs := wireGenRecords(t)
	rand.New(rand.NewSource(1)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	var batch, payload []byte
	var keys []string
	for _, r := range recs {
		payload, keys = encodeRecord(payload[:0], r.Seq, r.Mutation(), keys)
		batch = appendWire(batch, payload)
	}
	scratch := map[string]string{"stale": "entry"}
	for i, want := range recs {
		payload, rest, op, err := NextWire(batch)
		if err != nil {
			t.Fatalf("record %d: NextWire: %v", i, err)
		}
		batch = rest
		for _, attrs := range []map[string]string{nil, scratch} {
			var got Record
			if err := DecodeWire(payload, &got, attrs); err != nil {
				t.Fatalf("record %d (%s): DecodeWire: %v", i, want.Op, err)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) || op != want.Op {
				t.Fatalf("record %d: round trip changed it (peeked op %s):\nwant %s\ngot  %s", i, op, wj, gj)
			}
		}
	}
	if len(batch) != 0 {
		t.Fatalf("%d bytes left after the last record", len(batch))
	}
	// A payload that refers to a dictionary, as a skgwal2 log's could,
	// cannot be a wire payload: set_attr of node 1, key = string 1, "v".
	withRef := []byte{1, opSetAttr, 1, 1, 1, 'v'}
	if err := DecodeWire(withRef, new(Record), nil); err == nil {
		t.Fatal("a dictionary reference decoded")
	}
	for _, bad := range [][]byte{{}, {0}, {5, 1, 2}, {1, 1}, {2, 1, 99}, {0x80}} {
		if _, _, _, err := NextWire(bad); err == nil {
			t.Fatalf("NextWire accepted %v", bad)
		}
	}
}

// tailRecords reads a cursor to the end of what is committed and
// returns the records it yields, in batches of at most limit bytes.
func tailRecords(t *testing.T, db *DB, from uint64, limit int) []Record {
	t.Helper()
	cur := db.TailFrom(from)
	defer cur.Close()
	var recs []Record
	for {
		batch, n, err := cur.Next(nil, limit)
		if err != nil {
			t.Fatalf("cursor from %d: %v", from, err)
		}
		if n == 0 {
			return recs
		}
		for len(batch) > 0 {
			payload, rest, _, err := NextWire(batch)
			if err != nil {
				t.Fatal(err)
			}
			var rec Record
			if err := DecodeWire(payload, &rec, nil); err != nil {
				t.Fatal(err)
			}
			recs, batch, n = append(recs, rec), rest, n-1
		}
		if n != 0 {
			t.Fatalf("cursor counted %d records more than the batch holds", n)
		}
	}
}

// TestTailCursorMatchesLog: whatever position a cursor starts from and
// whichever source feeds it — the in-memory tail, the log file once the
// tail has evicted that far back, or the file and then the tail — it
// yields exactly the log's committed records from there on, in batches
// that respect the byte limit; a position a checkpoint truncated away is
// ErrTailTruncated.
func TestTailCursorMatchesLog(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1, TailRecords: 64})
	defer db.Close()
	tg := newTxMutGen(9)
	for i := 0; i < 300; i++ {
		tg.batch(db.Store())
	}
	// An open group on disk and in the tail: never handed out.
	db.logMutation(graph.Mutation{Op: graph.OpTxBegin})
	db.logMutation(graph.Mutation{Op: graph.OpSetAttr, Node: 1, Key: "open", Val: "group"})
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for _, rec := range scanWAL(bytes.NewReader(walBytes)).records {
		if rec.Seq <= db.CommittedSeq() {
			want = append(want, rec)
		}
	}
	if uint64(len(want)) != db.CommittedSeq() || db.LastSeq() != db.CommittedSeq()+2 {
		t.Fatalf("log holds %d committed records, watermark %d, last seq %d", len(want), db.CommittedSeq(), db.LastSeq())
	}
	for _, from := range []uint64{0, 1, 2, uint64(len(want)) / 2, uint64(len(want)) - 70, uint64(len(want)) - 10, uint64(len(want)), uint64(len(want)) + 1} {
		for _, limit := range []int{1, 200, 1 << 20} {
			got := tailRecords(t, db, from, limit)
			exp := want[min(max(int(from), 1)-1, len(want)):]
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(exp)
			if len(got) != len(exp) || (len(got) > 0 && !bytes.Equal(gj, wj)) {
				t.Fatalf("from %d, limit %d: cursor yielded %d records, the log has %d from there (or they differ)", from, limit, len(got), len(exp))
			}
		}
	}
	// A batch never outgrows the limit by more than its last record.
	cur := db.TailFrom(1)
	batch, n, err := cur.Next(nil, 200)
	cur.Close()
	if err != nil || n == 0 || len(batch) > 200+64 {
		t.Fatalf("first 200-byte batch: %d records, %d bytes, %v", n, len(batch), err)
	}

	db.logMutation(graph.Mutation{Op: graph.OpTxCommit})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Store().MergeNode("Post", "checkpoint", nil)
	cur = db.TailFrom(5)
	defer cur.Close()
	if _, _, err := cur.Next(nil, 1<<20); err != ErrTailTruncated {
		t.Fatalf("cursor behind a checkpoint: %v, want ErrTailTruncated", err)
	}
	if got := tailRecords(t, db, db.LastSeq(), 1<<20); len(got) != 1 || got[0].Name != "checkpoint" {
		t.Fatalf("cursor at the head after a checkpoint yielded %+v", got)
	}
}
