package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/parentdir is a data directory the commit before the slab /
// posting / slice-attrs store representation wrote: a binary snapshot
// cut mid-history plus the WAL that follows it (bare records and
// transaction groups), with the SHA-256 of the writer's final Save
// stream beside them. Recovery on any later commit must arrive at the
// same bytes — the on-disk formats did not move. Regenerate
// (-update-oracle) only for a change that means to alter them.

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/parentdir from this build")

const oracleDir = "testdata/parentdir"

func saveSum(t *testing.T, db *DB) string {
	sum := sha256.Sum256(saveBytes(t, db.Store()))
	return hex.EncodeToString(sum[:])
}

// writeOracleDir writes the recorded history into dir.
func writeOracleDir(t *testing.T, dir string) {
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	g := newMutGen(23)
	for i := 0; i < 600; i++ {
		g.step(db.Store())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		g.step(db.Store())
	}
	for round := 0; round < 5; round++ {
		tx := db.Store().BeginTx()
		for i := 0; i < 20; i++ {
			g.step(tx)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	sum := saveSum(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, lockFile))
	if err := os.WriteFile(filepath.Join(dir, "save.sha256"), []byte(sum+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRecordedDataDir(t *testing.T) {
	if *updateOracle {
		writeOracleDir(t, oracleDir)
	}
	dir := t.TempDir()
	for _, name := range []string{snapshotBinFile, walFile} {
		data, err := os.ReadFile(filepath.Join(oracleDir, name))
		if err != nil {
			t.Fatalf("%v (generate with -update-oracle on the commit that owns the format)", err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(oracleDir, "save.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	defer db.Close()
	if db.Recovered.SnapshotSeq == 0 || db.Recovered.Replayed == 0 || db.Recovered.TornTail {
		t.Fatalf("recovery did not use both snapshot and log: %+v", db.Recovered)
	}
	if got := saveSum(t, db); got != strings.TrimSpace(string(want)) {
		t.Errorf("recovered Save stream hashes to %s, the writer's hashed to %s", got, strings.TrimSpace(string(want)))
	}
}

// TestWriteRecordedDataDirBytes is the other direction: writing the same
// seeded history with this build produces the recorded files byte for
// byte — the snapshot, and the log with its bare records and transaction
// groups, however the appender now batches its writes.
func TestWriteRecordedDataDirBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "written")
	writeOracleDir(t, dir)
	for _, name := range []string{snapshotBinFile, walFile, "save.sha256"} {
		want, err := os.ReadFile(filepath.Join(oracleDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: this build wrote %d bytes that differ from the %d recorded", name, len(got), len(want))
		}
	}
}
