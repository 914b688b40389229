package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"securitykg/internal/graph"
)

// writeWALFile frames recs into a single continuous log file in the
// given codec (one dictionary stream), as a real appender would have.
func writeWALFile(t *testing.T, path string, recs []Record, codec Codec) {
	t.Helper()
	var buf bytes.Buffer
	dict := newWALDict(nil)
	if codec == CodecBinary {
		buf.WriteString(walMagic)
	}
	var enc []byte
	var keys []string
	for _, rec := range recs {
		var payload []byte
		if codec == CodecBinary {
			enc, keys = encodeRecordBinary(enc[:0], rec, dict, keys)
			payload = enc
		} else {
			var err error
			if payload, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
		}
		var hdr [recordHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecordCodecRoundTrip: every record shape survives the binary
// codec bit-exactly, including dictionary reuse across records.
func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Op: graph.OpMergeNode, Type: "Malware", Name: "emotet",
			Attrs: map[string]string{"family": "trojan", "cve": "CVE-1", "": "empty-key"}},
		{Seq: 2, Op: graph.OpMergeNode, Type: "Malware", Name: "", Attrs: nil},
		{Seq: 3, Op: graph.OpAddEdge, Type: "connects_to", From: 1, To: 2,
			Attrs: map[string]string{"port": "443"}},
		{Seq: 4, Op: graph.OpSetAttr, Node: 2, Key: "cve", Val: "CVE-2"},
		{Seq: 5, Op: graph.OpSetAttr, Node: 2, Key: "", Val: ""},
		{Seq: 6, Op: graph.OpDeleteEdge, Edge: 1},
		{Seq: 7, Op: graph.OpMigrateEdges, From: 2, To: 1},
		{Seq: 8, Op: graph.OpDeleteNode, Node: 1},
	}
	encDict := newWALDict(nil)
	var decDict []string
	var buf []byte
	var keys []string
	for _, want := range recs {
		buf, keys = encodeRecordBinary(buf[:0], want, encDict, keys)
		got, err := decodeRecordBinary(buf, &decDict)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", want.Seq, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("seq %d: round trip changed record:\nwant %s\ngot  %s", want.Seq, wj, gj)
		}
	}
	// Re-encoding the same vocabulary must now be pure dictionary refs:
	// the second MergeNode-style record is smaller than the first.
	d2 := newWALDict(nil)
	first, _ := encodeRecordBinary(nil, recs[0], d2, nil)
	second, _ := encodeRecordBinary(nil, recs[0], d2, nil)
	if len(second) >= len(first) {
		t.Fatalf("dictionary reuse did not shrink a repeated record: %d then %d bytes", len(first), len(second))
	}
}

// buildDataDir creates a data directory in the given codec containing a
// snapshot (mid-stream checkpoint) plus a WAL tail, and returns the
// canonical Save bytes of the final store.
func buildDataDir(t *testing.T, dir string, codec Codec, seed int64) []byte {
	t.Helper()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1, Codec: codec})
	g := newMutGen(seed)
	for i := 0; i < 120; i++ {
		g.step(db.Store())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 0; i < 60; i++ {
		g.step(db.Store())
	}
	want := saveBytes(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCrossCodecMatrix is the forward/backward-compat matrix: a data
// directory written entirely in either codec must be recovered
// byte-identically by a build configured for either codec, and the
// directory must convert to the configured codec at its next
// checkpoint — snapshot file renamed over, WAL restarted in the new
// format — without losing a mutation.
func TestCrossCodecMatrix(t *testing.T) {
	for _, dirCodec := range []Codec{CodecJSON, CodecBinary} {
		for _, openCodec := range []Codec{CodecJSON, CodecBinary} {
			t.Run(dirCodec.String()+"-dir/"+openCodec.String()+"-build", func(t *testing.T) {
				dir := t.TempDir()
				want := buildDataDir(t, dir, dirCodec, 11)

				db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1, Codec: openCodec})
				if got := saveBytes(t, db.Store()); !bytes.Equal(got, want) {
					t.Fatalf("%v dir recovered by %v build differs", dirCodec, openCodec)
				}
				if db.Recovered.SnapshotSeq == 0 || db.Recovered.Replayed == 0 {
					t.Fatalf("recovery skipped snapshot or tail: %+v", db.Recovered)
				}
				// The next checkpoint converts the directory.
				db.Store().MergeNode("Converted", "marker", nil)
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("converting checkpoint: %v", err)
				}
				db.Store().MergeNode("Converted", "post-checkpoint", nil)
				want2 := saveBytes(t, db.Store())
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				wantSnap, otherSnap := snapshotBinFile, snapshotFile
				if openCodec == CodecJSON {
					wantSnap, otherSnap = snapshotFile, snapshotBinFile
				}
				if _, err := os.Stat(filepath.Join(dir, wantSnap)); err != nil {
					t.Fatalf("converted snapshot %s missing: %v", wantSnap, err)
				}
				if _, err := os.Stat(filepath.Join(dir, otherSnap)); !os.IsNotExist(err) {
					t.Fatalf("stale snapshot %s still present (err=%v)", otherSnap, err)
				}
				walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
				if err != nil {
					t.Fatal(err)
				}
				isBin := bytes.HasPrefix(walBytes, []byte(walMagic))
				if isBin != (openCodec == CodecBinary) {
					t.Fatalf("post-conversion WAL codec: binary=%v, want %v", isBin, openCodec == CodecBinary)
				}

				db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1, Codec: openCodec})
				defer db2.Close()
				if got := saveBytes(t, db2.Store()); !bytes.Equal(got, want2) {
					t.Fatal("converted directory lost state across reopen")
				}
			})
		}
	}
}

// TestBothSnapshotsPresent: a crash between a checkpoint's rename and
// its removal of the other codec's file leaves both snapshots; recovery
// must pick the higher covering seq.
func TestBothSnapshotsPresent(t *testing.T) {
	dir := t.TempDir()
	// Older JSON snapshot at a lower seq.
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1, Codec: CodecJSON})
	g := newMutGen(13)
	for i := 0; i < 50; i++ {
		g.step(db.Store())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	oldJSON, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	// Newer binary snapshot at a higher seq (its checkpoint removed the
	// JSON file; put the stale one back to simulate the crash window).
	db = openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1, Codec: CodecBinary})
	for i := 0; i < 50; i++ {
		g.step(db.Store())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), oldJSON, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	defer db2.Close()
	if got := saveBytes(t, db2.Store()); !bytes.Equal(got, want) {
		t.Fatal("recovery with both snapshots present did not pick the newer one")
	}
}

// TestBinaryWALTornDictionary: a binary log cut mid-record must recover
// to the surviving prefix with a consistent dictionary — in particular,
// appends after recovery (which reseed the dictionary from the scan)
// must produce records the next recovery decodes correctly.
func TestBinaryWALTornDictionary(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	// Vocabulary-heavy stream so dictionary refs dominate.
	for i := 0; i < 30; i++ {
		id, _ := db.Store().MergeNode("Malware", "m"+string(rune('a'+i%26)), map[string]string{"family": "trojan"})
		db.Store().SetAttr(id, "score", "9")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-file: the tail record (and its dictionary additions) die.
	if err := os.WriteFile(walPath, walBytes[:2*len(walBytes)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	// These appends must reuse surviving dictionary ids, not collide.
	id, _ := db2.Store().MergeNode("Malware", "fresh-after-tear", map[string]string{"family": "worm"})
	db2.Store().SetAttr(id, "score", "1")
	want := saveBytes(t, db2.Store())
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	defer db3.Close()
	if got := saveBytes(t, db3.Store()); !bytes.Equal(got, want) {
		t.Fatal("post-tear appends did not survive recovery (dictionary desync?)")
	}
	n := db3.Store().FindNode("Malware", "fresh-after-tear")
	if n == nil || n.Attrs.Get("family") != "worm" {
		t.Fatalf("post-tear node wrong: %+v", n)
	}
}

// scannedWAL is a test's view of a whole log: the records of the valid
// prefix beside the scanner's verdict on it.
type scannedWAL struct {
	replayResult
	records []Record
}

// scanWAL collects the whole valid prefix; recovery streams it instead.
func scanWAL(r io.Reader) scannedWAL {
	sc := newWALScanner(r)
	var out scannedWAL
	var rec Record
	for sc.next(&rec) {
		rec.Attrs = maps.Clone(rec.Attrs) // the scanner reuses its map
		out.records = append(out.records, rec)
	}
	out.replayResult = sc.res
	return out
}

// decodeRecordBinary decodes one payload, mutating dict exactly as the
// writer did when encoding it.
func decodeRecordBinary(p []byte, dict *[]string) (Record, error) {
	var rec Record
	err := decodeRecordBinaryInto(p, dict, &rec, nil)
	return rec, err
}
