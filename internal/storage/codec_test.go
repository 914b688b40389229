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

// dictEncoder is the skgwal2 writer, kept to produce the logs Open must
// still read: a symbol spelled once is added to the log's in-band
// dictionary, and from then on written as a reference to it (its 1-based
// position). One encoder per log file.
type dictEncoder map[string]uint64

func (d dictEncoder) symbol(buf []byte, s string) []byte {
	if id, ok := d[s]; ok {
		return binary.AppendUvarint(buf, id)
	}
	d[s] = uint64(len(d)) + 1
	return appendSymbol(buf, s)
}

func (d dictEncoder) encode(buf []byte, rec Record) []byte {
	buf = binary.AppendUvarint(buf, rec.Seq)
	code, _ := opcodeOf(rec.Op)
	buf = append(buf, code)
	attrs := func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Attrs)))
		var keys []string
		for k := range rec.Attrs {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			buf = appendStr(d.symbol(buf, k), rec.Attrs[k])
		}
		return buf
	}
	switch code {
	case opMergeNode:
		buf = attrs(appendStr(d.symbol(buf, rec.Type), rec.Name))
	case opAddEdge:
		buf = d.symbol(buf, rec.Type)
		buf = attrs(binary.AppendUvarint(binary.AppendUvarint(buf, uint64(rec.From)), uint64(rec.To)))
	case opSetAttr:
		buf = appendStr(d.symbol(binary.AppendUvarint(buf, uint64(rec.Node)), rec.Key), rec.Val)
	case opDeleteNode:
		buf = binary.AppendUvarint(buf, uint64(rec.Node))
	case opDeleteEdge:
		buf = binary.AppendUvarint(buf, uint64(rec.Edge))
	case opMigrateEdges:
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(rec.From)), uint64(rec.To))
	}
	return buf
}

// walFileBytes frames recs as one continuous log file of the given
// format, as its appender would have: this build's, or one of the two
// that came before it, which no build can produce any more but Open must
// read — skgwal2 (one dictionary stream) and the JSON era (no file magic,
// JSON payloads).
func walFileBytes(t testing.TB, recs []Record, format logFormat) []byte {
	t.Helper()
	var buf bytes.Buffer
	dict := dictEncoder{}
	switch format {
	case formatWire:
		buf.WriteString(walMagic)
	case formatDict:
		buf.WriteString(walMagicDict)
	}
	for _, rec := range recs {
		var payload []byte
		switch format {
		case formatWire:
			payload, _ = encodeRecord(nil, rec.Seq, rec.Mutation(), nil)
		case formatDict:
			payload = dict.encode(nil, rec)
		case formatJSON:
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
	return buf.Bytes()
}

// relogBytes re-frames a log this build wrote as the log an earlier
// build would have written holding the same records.
func relogBytes(t testing.TB, walBytes []byte, format logFormat) []byte {
	t.Helper()
	full := scanWAL(bytes.NewReader(walBytes))
	if full.torn || full.format != formatWire || len(full.records) == 0 {
		t.Fatalf("source log scans torn=%v format=%d records=%d", full.torn, full.format, len(full.records))
	}
	return walFileBytes(t, full.records, format)
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

// TestRecordCodecRoundTrip: every record shape survives the codec
// bit-exactly, each payload on its own, and so does the skgwal2 decode,
// whose dictionary references are resolved across records.
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
	enc := dictEncoder{}
	var decDict []string
	for _, want := range recs {
		wire, _ := encodeRecord(nil, want.Seq, want.Mutation(), nil)
		for _, tc := range []struct {
			payload []byte
			dict    *[]string
		}{{wire, nil}, {enc.encode(nil, want), &decDict}} {
			var got Record
			if err := decodeRecord(tc.payload, tc.dict, &got, nil); err != nil {
				t.Fatalf("seq %d: decode: %v", want.Seq, err)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				t.Fatalf("seq %d: round trip changed record:\nwant %s\ngot  %s", want.Seq, wj, gj)
			}
		}
	}
	// The skgwal2 form of a repeated record is pure dictionary refs: the
	// decode above resolved references, not only inline strings.
	d2 := dictEncoder{}
	if first, second := d2.encode(nil, recs[0]), d2.encode(nil, recs[0]); len(second) >= len(first) {
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

// TestBinaryWALTornDictionary: a skgwal2 log cut mid-record must recover
// to the surviving prefix — its dictionary rebuilt from exactly the
// records that survived — and the directory Open rewrites must take
// appends the next recovery reads back.
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
	dictLog := relogBytes(t, walBytes, formatDict)
	cut := dictLog[:2*len(dictLog)/3]
	survived := scanWAL(bytes.NewReader(cut))
	if !survived.torn || len(survived.records) == 0 {
		t.Fatalf("the cut log scans torn=%v with %d records", survived.torn, len(survived.records))
	}
	if err := os.WriteFile(walPath, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	if db2.LastSeq() != survived.records[len(survived.records)-1].Seq {
		t.Fatalf("recovered through seq %d, the cut log holds %d records", db2.LastSeq(), len(survived.records))
	}
	id, _ := db2.Store().MergeNode("Malware", "fresh-after-tear", map[string]string{"family": "worm"})
	db2.Store().SetAttr(id, "score", "1")
	want := saveBytes(t, db2.Store())
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	requireBinaryDir(t, dir)
	db3 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	defer db3.Close()
	if got := saveBytes(t, db3.Store()); !bytes.Equal(got, want) {
		t.Fatal("post-tear appends did not survive recovery")
	}
	n := findNode(db3.Store(), "Malware", "fresh-after-tear")
	if n == nil || n.Attrs.Get("family") != "worm" {
		t.Fatalf("post-tear node wrong: %+v", n)
	}
}

// scannedWAL is a test's view of a whole log: the records of the valid
// prefix beside the scanner's verdict on it.
type scannedWAL struct {
	records []Record
	torn    bool
	format  logFormat
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
	out.torn, out.format = sc.torn, sc.format
	return out
}
