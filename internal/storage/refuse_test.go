package storage

import (
	"bytes"
	"fmt"
	"maps"
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
// (oracle_test.go's history) — a snapshot.skg plus a skgwal2 wal.log.
// No build can produce these files any more, and this one refuses them.
// Each directory also holds upgraded.skg: the snapshot.skg that opening
// it with commit 9caabe4 landed, rewriting it in the current form (its
// wal.log then restarted as a bare magic).
var earlierDirs = []struct {
	dir, snapshot string
}{
	{"testdata/parentdir-json", jsonSnapshotFile},
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

// dirFiles returns the contents of every file in dir but LOCK.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if e.Name() != lockFile {
			files[e.Name()] = readOracleFile(t, dir, e.Name())
		}
	}
	return files
}

// checkRefused opens dir, which Open must refuse: the error names file
// (in dir), says what the file looks like (what, unless empty) and names
// the way out, no DB comes back, and every file but LOCK is byte for byte
// as it was.
func checkRefused(t *testing.T, dir, file, what string) error {
	t.Helper()
	before := dirFiles(t, dir)
	db, err := Open(dir, Options{Sync: SyncNever, CompactBytes: -1})
	if err == nil {
		db.Close()
		return fmt.Errorf("Open accepted the directory (%+v)", db.Recovered)
	}
	if db != nil {
		return fmt.Errorf("Open returned a DB beside its error %v", err)
	}
	for _, want := range []string{filepath.Join(dir, file) + " is ", what, "9caabe4"} {
		if !strings.Contains(err.Error(), want) {
			return fmt.Errorf("the refusal does not say %q: %v", want, err)
		}
	}
	if after := dirFiles(t, dir); !maps.EqualFunc(after, before, bytes.Equal) {
		return fmt.Errorf("the refused directory changed: %d files before, %d after", len(before), len(after))
	}
	return nil
}

// TestRefuseEarlierDataDir: each directory an earlier build wrote is
// refused, whichever of its files gives it away — the recorded
// directories, the JSON-era log without its snapshot, and a replica
// directory holding only a JSON-era snapshot, which HasState must count
// as state so that a follower meets the refusal instead of installing a
// snapshot over it.
func TestRefuseEarlierDataDir(t *testing.T) {
	jsonDir, skgwal2Dir := earlierDirs[0].dir, earlierDirs[1].dir
	for _, tc := range []struct {
		name       string
		files      map[string][]byte
		file, what string
	}{
		{"parentdir-json", map[string][]byte{
			jsonSnapshotFile: readOracleFile(t, jsonDir, jsonSnapshotFile),
			walFile:          readOracleFile(t, jsonDir, walFile),
		}, jsonSnapshotFile, "a JSON-era snapshot"},
		{"parentdir-skgwal2", map[string][]byte{
			snapshotBinFile: readOracleFile(t, skgwal2Dir, snapshotBinFile),
			walFile:         readOracleFile(t, skgwal2Dir, walFile),
		}, walFile, "a skgwal2 log"},
		{"json-log-alone", map[string][]byte{
			walFile: readOracleFile(t, jsonDir, walFile),
		}, walFile, "unrecognised or damaged header"},
		{"replica-jsonl-only", map[string][]byte{
			jsonSnapshotFile: readOracleFile(t, jsonDir, jsonSnapshotFile),
		}, jsonSnapshotFile, "a JSON-era snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFiles(t, dir, tc.files)
			if !HasState(dir) {
				t.Fatal("HasState does not count the directory as holding state")
			}
			if err := checkRefused(t, dir, tc.file, tc.what); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDamagedWALMagicRefuses: a log whose magic has one bit flipped is
// refused and left as it is — not read as a JSON-era log whose first
// frame is torn, which recovered an empty store and truncated the log to
// nothing.
func TestDamagedWALMagicRefuses(t *testing.T) {
	src := t.TempDir()
	db := openT(t, src, Options{Sync: SyncNever, CompactBytes: -1})
	for i := 0; i < 50; i++ {
		db.Store().MergeNode("Malware", fmt.Sprint("m", i), map[string]string{"family": "trojan"})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wal := readOracleFile(t, src, walFile)
	for bit := 0; bit < 8*len(walMagic); bit++ {
		dir := t.TempDir()
		damaged := bytes.Clone(wal)
		damaged[bit/8] ^= 1 << (bit % 8)
		writeFiles(t, dir, map[string][]byte{walFile: damaged})
		if err := checkRefused(t, dir, walFile, ""); err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
	}
}

// TestUpgradeRecordedJSONDir: an earlier build's upgrade is the one way a
// recorded directory comes forward — opening it once with commit 9caabe4
// rewrote it in place. Every state a crash inside that upgrade can leave
// is refused untouched, so running that build again finishes the job;
// the state the upgrade ends in — upgraded.skg beside an emptied log — is
// this build's format and recovers to the writer's store, and takes
// writes a reopen reads back. A skgwal2 directory has no snapshot.jsonl
// to drop, so its windows b and c are one state.
func TestUpgradeRecordedJSONDir(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files func(snapshot string, snap, wal, upgraded []byte) map[string][]byte
	}{
		{"a-half-written-tmp", func(snapshot string, snap, wal, upgraded []byte) map[string][]byte {
			return map[string][]byte{snapshotBinFile + ".tmp": upgraded[:len(upgraded)/2], snapshot: snap, walFile: wal}
		}},
		{"b-snapshot-landed", func(snapshot string, snap, wal, upgraded []byte) map[string][]byte {
			files := map[string][]byte{snapshot: snap, walFile: wal}
			files[snapshotBinFile] = upgraded
			return files
		}},
		{"c-jsonl-dropped", func(_ string, _, wal, upgraded []byte) map[string][]byte {
			return map[string][]byte{snapshotBinFile: upgraded, walFile: wal}
		}},
		{"d-log-emptied", func(_ string, _, _, upgraded []byte) map[string][]byte {
			return map[string][]byte{snapshotBinFile: upgraded, walFile: nil}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, o := range earlierDirs {
				t.Run(filepath.Base(o.dir), func(t *testing.T) {
					dir := t.TempDir()
					files := tc.files(o.snapshot, readOracleFile(t, o.dir, o.snapshot),
						readOracleFile(t, o.dir, walFile), readOracleFile(t, o.dir, "upgraded.skg"))
					writeFiles(t, dir, files)
					if len(files[walFile]) > 0 {
						refused := walFile
						if files[jsonSnapshotFile] != nil {
							refused = jsonSnapshotFile
						}
						if err := checkRefused(t, dir, refused, ""); err != nil {
							t.Fatal(err)
						}
						return
					}
					db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
					want := strings.TrimSpace(string(readOracleFile(t, o.dir, "save.sha256")))
					if got := saveSum(t, db); got != want {
						t.Fatalf("recovered Save stream hashes to %s, the writer's hashed to %s", got, want)
					}
					if db.Recovered.SnapshotSeq == 0 || db.Recovered.Replayed != 0 || db.LastSeq() != db.Recovered.SnapshotSeq {
						t.Fatalf("recovery of the upgraded directory: %+v, resuming at seq %d", db.Recovered, db.LastSeq())
					}
					db.Store().MergeNode("Post", "upgrade", nil)
					after := saveBytes(t, db.Store())
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					requireBinaryDir(t, dir)
					db2 := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
					defer db2.Close()
					if got := saveBytes(t, db2.Store()); !bytes.Equal(got, after) || db2.Recovered.Replayed != 1 {
						t.Fatalf("the upgraded directory lost state across a write and a reopen (%+v)", db2.Recovered)
					}
				})
			}
		})
	}
}
