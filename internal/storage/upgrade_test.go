package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Two data directories earlier builds wrote, each with the SHA-256 of
// its writer's final Save stream beside it. testdata/parentdir-json: the
// last commit with a JSON writer, under its -codec json — a
// snapshot.jsonl cut mid-history plus the JSON wal.log that follows it
// (bare records and three committed transaction groups).
// testdata/parentdir-skgwal2: the last build with an in-band dictionary
// (oracle_test.go's history) — a snapshot.skg plus a skgwal2 wal.log. No
// build can produce these logs any more; Open must keep reading them,
// and must leave the directory as this build writes one.
var upgradeOracles = []struct {
	dir, snapshot string
}{
	{"testdata/parentdir-json", snapshotFile},
	{"testdata/parentdir-skgwal2", snapshotBinFile},
}

func readOracleFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestUpgradeRecordedJSONDir(t *testing.T) {
	// What each directory holds, and what the upgrade leaves: the
	// snapshot it lands and the seq the log resumes after.
	type upgraded struct {
		snap, wal, binSnap []byte
		want               string
		lastSeq            uint64
	}
	var ups []upgraded
	for _, o := range upgradeOracles {
		up := upgraded{
			snap: readOracleFile(t, o.dir, o.snapshot),
			wal:  readOracleFile(t, o.dir, walFile),
			want: strings.TrimSpace(string(readOracleFile(t, o.dir, "save.sha256"))),
		}
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{o.snapshot: up.snap, walFile: up.wal})
		db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
		if db.Recovered.SnapshotSeq == 0 || db.Recovered.Replayed == 0 || db.Recovered.TornTail {
			t.Fatalf("%s: recovery did not use both snapshot and log: %+v", o.dir, db.Recovered)
		}
		if got := saveSum(t, db); got != up.want {
			t.Fatalf("%s: recovered Save stream hashes to %s, the writer's hashed to %s", o.dir, got, up.want)
		}
		// Open has returned: the directory is already rewritten.
		requireBinaryDir(t, dir)
		up.binSnap = readOracleFile(t, dir, snapshotBinFile)
		up.lastSeq = db.LastSeq()

		db.Store().MergeNode("Post", "upgrade", nil)
		after := saveBytes(t, db.Store())
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
		if got := saveBytes(t, db2.Store()); !bytes.Equal(got, after) {
			t.Fatalf("%s: the upgraded directory lost state across a write and a reopen", o.dir)
		}
		if db2.Recovered.SnapshotSeq != up.lastSeq || db2.Recovered.Replayed != 1 {
			t.Fatalf("%s: reopen of the upgraded directory: %+v, want snapshot seq %d and one record", o.dir, db2.Recovered, up.lastSeq)
		}
		db2.Close()
		ups = append(ups, up)
	}

	// Every state a crash inside the upgrade can leave reopens to the
	// recorded store and finishes the job. A skgwal2 directory has no
	// snapshot.jsonl to drop, so its windows b and c are one state.
	for _, tc := range []struct {
		name  string
		files func(snapshot string, up upgraded) map[string][]byte
	}{
		{"a-half-written-tmp", func(snapshot string, up upgraded) map[string][]byte {
			return map[string][]byte{snapshotBinFile + ".tmp": up.binSnap[:len(up.binSnap)/2], snapshot: up.snap, walFile: up.wal}
		}},
		{"b-snapshot-landed", func(snapshot string, up upgraded) map[string][]byte {
			files := map[string][]byte{snapshot: up.snap, walFile: up.wal}
			files[snapshotBinFile] = up.binSnap
			return files
		}},
		{"c-jsonl-dropped", func(_ string, up upgraded) map[string][]byte {
			return map[string][]byte{snapshotBinFile: up.binSnap, walFile: up.wal}
		}},
		{"d-log-emptied", func(_ string, up upgraded) map[string][]byte {
			return map[string][]byte{snapshotBinFile: up.binSnap, walFile: nil}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, o := range upgradeOracles {
				up := ups[i]
				t.Run(filepath.Base(o.dir), func(t *testing.T) {
					dir := t.TempDir()
					writeFiles(t, dir, tc.files(o.snapshot, up))
					db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
					if got := saveSum(t, db); got != up.want {
						t.Fatalf("recovered Save stream hashes to %s, want %s (%+v)", got, up.want, db.Recovered)
					}
					if db.LastSeq() != up.lastSeq {
						t.Fatalf("resumes at seq %d, want %d", db.LastSeq(), up.lastSeq)
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					requireBinaryDir(t, dir)
				})
			}
		})
	}
}
