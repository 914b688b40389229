package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/parentdir-json is a data directory the last commit with a
// JSON writer wrote under its -codec json: a snapshot.jsonl cut
// mid-history plus the JSON wal.log that follows it (bare records and
// three committed transaction groups), with the SHA-256 of the writer's
// final Save stream beside them. No build can produce these bytes any
// more; Open must keep reading them, and must leave a binary directory.

const jsonOracleDir = "testdata/parentdir-json"

func readJSONOracle(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(jsonOracleDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestUpgradeRecordedJSONDir(t *testing.T) {
	jsonSnap, jsonWAL := readJSONOracle(t, snapshotFile), readJSONOracle(t, walFile)
	want := strings.TrimSpace(string(readJSONOracle(t, "save.sha256")))

	dir := t.TempDir()
	writeFiles(t, dir, map[string][]byte{snapshotFile: jsonSnap, walFile: jsonWAL})
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	if db.Recovered.SnapshotSeq == 0 || db.Recovered.Replayed == 0 || db.Recovered.TornTail {
		t.Fatalf("recovery did not use both snapshot and log: %+v", db.Recovered)
	}
	if got := saveSum(t, db); got != want {
		t.Fatalf("recovered Save stream hashes to %s, the writer's hashed to %s", got, want)
	}
	// Open has returned: the directory is already binary.
	requireBinaryDir(t, dir)
	binSnap, err := os.ReadFile(filepath.Join(dir, snapshotBinFile))
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := db.LastSeq()

	db.Store().MergeNode("Post", "upgrade", nil)
	after := saveBytes(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	if got := saveBytes(t, db2.Store()); !bytes.Equal(got, after) {
		t.Fatal("the upgraded directory lost state across a write and a reopen")
	}
	if db2.Recovered.SnapshotSeq != lastSeq || db2.Recovered.Replayed != 1 {
		t.Fatalf("reopen of the upgraded directory: %+v, want snapshot seq %d and one record", db2.Recovered, lastSeq)
	}
	db2.Close()

	// Every state a crash inside the upgrade can leave reopens to the
	// recorded store and finishes the job.
	for _, tc := range []struct {
		name  string
		files map[string][]byte
	}{
		{"a-half-written-tmp", map[string][]byte{
			snapshotBinFile + ".tmp": binSnap[:len(binSnap)/2], snapshotFile: jsonSnap, walFile: jsonWAL}},
		{"b-snapshot-landed", map[string][]byte{
			snapshotBinFile: binSnap, snapshotFile: jsonSnap, walFile: jsonWAL}},
		{"c-jsonl-dropped", map[string][]byte{
			snapshotBinFile: binSnap, walFile: jsonWAL}},
		{"d-log-emptied", map[string][]byte{
			snapshotBinFile: binSnap, walFile: nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFiles(t, dir, tc.files)
			db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
			if got := saveSum(t, db); got != want {
				t.Fatalf("recovered Save stream hashes to %s, want %s (%+v)", got, want, db.Recovered)
			}
			if db.LastSeq() != lastSeq {
				t.Fatalf("resumes at seq %d, want %d", db.LastSeq(), lastSeq)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			requireBinaryDir(t, dir)
		})
	}
}
