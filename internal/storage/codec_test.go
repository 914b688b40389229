package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"securitykg/internal/graph"
)

// walFileBytes frames recs as a single continuous log file (one
// dictionary stream), as a real appender would have. jsonLog hand-frames
// the records the way the JSON-era appender did — no file magic, JSON
// payloads — which no build can produce any more but Open must read.
func walFileBytes(t testing.TB, recs []Record, jsonLog bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	dict := newWALDict(nil)
	if !jsonLog {
		buf.WriteString(walMagic)
	}
	var enc []byte
	var keys []string
	for _, rec := range recs {
		var payload []byte
		if jsonLog {
			var err error
			if payload, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
		} else {
			enc, keys = encodeRecordBinary(enc[:0], rec, dict, keys)
			payload = enc
		}
		var hdr [recordHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	return buf.Bytes()
}

// jsonLogBytes re-frames a log this build wrote as the JSON-era log
// holding the same records.
func jsonLogBytes(t testing.TB, walBytes []byte) []byte {
	t.Helper()
	full := scanWAL(bytes.NewReader(walBytes))
	if full.torn || full.jsonLog || len(full.records) == 0 {
		t.Fatalf("source log scans torn=%v json=%v records=%d", full.torn, full.jsonLog, len(full.records))
	}
	return walFileBytes(t, full.records, true)
}

// jsonSnapshotBytes crafts a JSON-era snapshot of st covering seq: the
// {magic, seq} header line, then the Save stream.
func jsonSnapshotBytes(t *testing.T, seq uint64, st *graph.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"magic\":%q,\"seq\":%d}\n", snapMagic, seq)
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeFiles writes each name → contents pair into dir.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// requireBinaryDir fails unless dir is what this build writes: no
// snapshot.jsonl, no temp file, and a log that opens with the magic.
// Call it once the log has been flushed (after Close, or straight after
// an Open that upgraded the directory).
func requireBinaryDir(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{snapshotFile, snapshotFile + ".tmp", snapshotBinFile + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s is still there (err=%v)", name, err)
		}
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(walBytes, []byte(walMagic)) {
		t.Fatalf("wal.log does not open with the magic: % x", walBytes[:min(len(walBytes), 16)])
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

// TestBothSnapshotsPresent: a crash between a converting checkpoint's
// rename and its removal of the other file leaves both snapshots — a
// stale snapshot.jsonl under a newer snapshot.skg (an earlier build
// converting to binary), or the reverse (one converting to JSON, which
// the upgrade must tolerate). Recovery picks the higher covering seq
// either way, and the directory it leaves is binary.
func TestBothSnapshotsPresent(t *testing.T) {
	src := t.TempDir()
	db := openT(t, src, Options{Sync: SyncNever, CompactBytes: -1})
	g := newMutGen(13)
	type snaps struct {
		seq  uint64
		bin  []byte
		json []byte
	}
	var at [2]snaps // an older and a newer checkpoint of one history
	for i := range at {
		for j := 0; j < 50; j++ {
			g.step(db.Store())
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		at[i].seq = db.LastSeq()
		var err error
		if at[i].bin, err = os.ReadFile(filepath.Join(src, snapshotBinFile)); err != nil {
			t.Fatal(err)
		}
		at[i].json = jsonSnapshotBytes(t, at[i].seq, db.Store())
	}
	want := saveBytes(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	older, newer := at[0], at[1]

	for _, tc := range []struct {
		name      string
		bin, json []byte
	}{
		{"stale-json", newer.bin, older.json},
		{"json-newer", older.bin, newer.json},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFiles(t, dir, map[string][]byte{snapshotBinFile: tc.bin, snapshotFile: tc.json})
			db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
			if got := saveBytes(t, db.Store()); !bytes.Equal(got, want) || db.Recovered.SnapshotSeq != newer.seq {
				t.Fatalf("recovery with both snapshots present did not pick the newer one (seq %d, want %d)", db.Recovered.SnapshotSeq, newer.seq)
			}
			requireBinaryDir(t, dir)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
			defer db2.Close()
			if got := saveBytes(t, db2.Store()); !bytes.Equal(got, want) || db2.Recovered.SnapshotSeq != newer.seq {
				t.Fatal("the upgraded directory lost state across reopen")
			}
		})
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
