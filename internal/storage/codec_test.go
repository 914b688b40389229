package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"securitykg/internal/graph"
)

// walFileBytes frames recs as one continuous log file, as its appender
// would have.
func walFileBytes(recs []Record) []byte {
	buf := []byte(walMagic)
	for _, rec := range recs {
		payload, _ := encodeRecord(nil, rec.Seq, rec.Mutation(), nil)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	return buf
}

// jsonSnapshotBytes crafts a JSON-era snapshot of st covering seq: the
// {magic, seq} header line, then the Save stream.
func jsonSnapshotBytes(t *testing.T, seq uint64, st *graph.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"magic\":\"securitykg-wal-snapshot\",\"seq\":%d}\n", seq)
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

// requireBinaryDir fails unless dir is what this build writes: no temp
// file, and a log that opens with the magic. Call it once the log has
// been flushed (after Close).
func requireBinaryDir(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, snapshotBinFile+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("the checkpoint temp file is still there (err=%v)", err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(walBytes, []byte(walMagic)) {
		t.Fatalf("wal.log does not open with the magic: % x", walBytes[:min(len(walBytes), 16)])
	}
}

// TestRecordCodecRoundTrip: every record shape survives the codec
// bit-exactly, each payload on its own.
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
	for _, want := range recs {
		wire, _ := encodeRecord(nil, want.Seq, want.Mutation(), nil)
		var got Record
		if err := DecodeWire(wire, &got, nil); err != nil {
			t.Fatalf("seq %d: decode: %v", want.Seq, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("seq %d: round trip changed record:\nwant %s\ngot  %s", want.Seq, wj, gj)
		}
	}
}

// TestBothSnapshotsPresent: a crash between an earlier build's
// converting checkpoint's rename and its removal of the other file
// leaves both snapshots — a stale snapshot.jsonl under a newer
// snapshot.skg (converting to binary), or the reverse (converting to
// JSON). Either way the directory is refused untouched: whether the
// JSON-era file is the stale one is not this build's to judge.
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
			g.step(bareWrites{db.Store()})
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
			writeFiles(t, dir, map[string][]byte{snapshotBinFile: tc.bin, jsonSnapshotFile: tc.json})
			if err := checkRefused(t, dir, jsonSnapshotFile, "a JSON-era snapshot"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// scannedWAL is a test's view of a whole log: the records of the valid
// prefix beside the scanner's verdict on it.
type scannedWAL struct {
	records []Record
	torn    bool
}

// scanWAL collects the whole valid prefix, decoded; recovery streams it
// instead.
func scanWAL(r io.Reader) scannedWAL {
	sc := newWALScanner(r)
	var out scannedWAL
	for sc.next() {
		var rec Record
		if err := DecodeWire(sc.cur, &rec, nil); err != nil {
			panic(fmt.Sprintf("the scanner handed out a payload that does not decode: %v", err))
		}
		out.records = append(out.records, rec)
	}
	out.torn = sc.torn
	return out
}
