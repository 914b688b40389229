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

// testdata/parentdir is a data directory this format's writer wrote: a
// binary snapshot cut mid-history plus the WAL that follows it (bare
// records and transaction groups), with the SHA-256 of the writer's
// final Save stream beside them. Recovery on any later commit must
// arrive at the same bytes. Regenerate it (-update-oracle) only for a
// change that means to alter the format.

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/parentdir from this build")

const oracleDir = "testdata/parentdir"

func saveSum(t *testing.T, db *DB) string {
	sum := sha256.Sum256(saveBytes(t, db.Store()))
	return hex.EncodeToString(sum[:])
}

// oracleHistory writes the recorded history into db: bare records, a
// checkpoint, more bare records, then five transaction groups.
func oracleHistory(t *testing.T, db *DB) {
	g := newMutGen(23)
	for i := 0; i < 600; i++ {
		g.step(bareWrites{db.Store()})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		g.step(bareWrites{db.Store()})
	}
	for round := 0; round < 5; round++ {
		tx := db.Store().BeginTx()
		for i := 0; i < 20; i++ {
			g.step(txWrites{tx})
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// writeOracleDir writes the recorded history into dir.
func writeOracleDir(t *testing.T, dir string) {
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	oracleHistory(t, db)
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
	src := oracleDir
	t.Run(filepath.Base(src), func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{snapshotBinFile, walFile} {
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatalf("%v (generate with -update-oracle on the commit that owns the format)", err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(filepath.Join(src, "save.sha256"))
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
		requireBinaryDir(t, dir)
	})
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

// TestLogPayloadsAreParentWire: testdata/wire_parent.bin is the oracle
// history's every record as the last build with an in-band dictionary
// shipped it to followers (its replication tail, read from seq 1). This
// build ships the same bytes, and its log file holds each record as
// exactly that payload.
func TestLogPayloadsAreParentWire(t *testing.T) {
	want, err := os.ReadFile("testdata/wire_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	oracleHistory(t, db)
	cur := db.TailFrom(1)
	shipped, n, err := cur.Next(nil, 1<<30)
	cur.Close()
	if err != nil || uint64(n) != db.LastSeq() {
		t.Fatalf("tail shipped %d records (%v), the log is at seq %d", n, err, db.LastSeq())
	}
	if !bytes.Equal(shipped, want) {
		t.Errorf("this build ships %d bytes for the history that differ from the %d recorded", len(shipped), len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	wire := map[uint64][]byte{}
	for run := want; len(run) > 0; {
		payload, rest, _, err := NextWire(run)
		if err != nil {
			t.Fatal(err)
		}
		seq, _, _ := peekRecord(payload)
		wire[seq], run = payload, rest
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	sc := newWALScanner(bytes.NewReader(walBytes))
	logged := 0
	for ; sc.next(); logged++ {
		if !bytes.Equal(sc.cur, wire[sc.lastSeq]) {
			t.Fatalf("seq %d: the log holds % x, the recorded wire payload is % x", sc.lastSeq, sc.cur, wire[sc.lastSeq])
		}
	}
	if sc.torn || logged == 0 || sc.lastSeq != uint64(n) {
		t.Fatalf("log scans torn=%v with %d records through seq %d", sc.torn, logged, sc.lastSeq)
	}
}
