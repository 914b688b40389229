package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// FuzzWALReplay feeds arbitrary (and mutated-valid) bytes to WAL
// recovery. Invariants: the scanner/replayer never panics, never
// allocates absurdly (the length-prefix bound), and always yields a
// usable store — corruption costs at most the records at and after the
// damage, never a crash. The same bytes are also recovered through the
// full directory path (Open), which either recovers and leaves the
// directory writable, or — for a header it does not read — refuses with
// the header error and leaves wal.log byte for byte as it was.
func FuzzWALReplay(f *testing.F) {
	// Seed with genuine logs covering every record type, including
	// transaction groups (tx_begin/mutations/tx_commit), whose replay
	// buffers records until the commit lands — each as this build writes
	// it, and under the two headers Open refuses: a skgwal2 log's magic,
	// and none (a JSON-era log's first bytes are a frame)...
	for name, write := range map[string]func(db *DB){
		"bare": func(db *DB) {
			g := newMutGen(7)
			for i := 0; i < 30; i++ {
				g.step(bareWrites{db.Store()})
			}
		},
		"tx": func(db *DB) {
			tg := newTxMutGen(11)
			for i := 0; i < 20; i++ {
				tg.batch(db.Store())
			}
		},
	} {
		dir := f.TempDir()
		db, err := Open(dir, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		write(db)
		db.Close()
		binBytes, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			f.Fatal(err)
		}
		for _, walBytes := range [][]byte{binBytes, append([]byte("skgwal2\n"), binBytes[len(walMagic):]...), binBytes[len(walMagic):]} {
			f.Add(walBytes)
			// ...plus truncations and bit flips the fuzzer can extend. The
			// mid-log truncation of the tx seed lands inside a group, the
			// exact shape the committed-prefix fold must discard.
			f.Add(walBytes[:len(walBytes)/2])
			f.Add(walBytes[1:])
			flipped := append([]byte{}, walBytes...)
			flipped[len(flipped)/3] ^= 0x40
			f.Add(flipped)
		}
	}
	// ...plus the group shapes no store writes: one rolled back, one cut
	// short by another tx_begin, a stray commit, and one left open.
	var recs []Record
	for i, op := range []graph.MutationOp{
		graph.OpMergeNode, graph.OpTxBegin, graph.OpMergeNode, graph.OpTxRollback,
		graph.OpTxBegin, graph.OpMergeNode, graph.OpTxBegin, graph.OpMergeNode, graph.OpTxCommit,
		graph.OpTxCommit, graph.OpTxBegin, graph.OpMergeNode,
	} {
		recs = append(recs, Record{Seq: uint64(i + 1), Op: op, Type: "Malware", Name: string(rune('a' + i))})
	}
	f.Add(walFileBytes(recs))
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte(walMagic))                           // bare header, zero records
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // huge length prefix
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := graph.New()
		if _, err := replayLog(bytes.NewReader(data), st, 0); err == nil {
			// A clean replay must leave a store whose snapshot round-trips.
			var b bytes.Buffer
			if err := st.SaveBinary(&b); err != nil {
				t.Fatalf("SaveBinary after replay: %v", err)
			}
			if _, err := graph.Load(&b); err != nil {
				t.Fatalf("replayed store does not round-trip: %v", err)
			}
		}

		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if head := data[:min(len(data), len(walMagic))]; !strings.HasPrefix(walMagic, string(head)) {
			if err := checkRefused(t, sub, walFile, ""); err != nil {
				t.Fatal(err)
			}
			return
		}
		rdb, err := Open(sub, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			return // structurally-valid records can still be unreplayable
		}
		rdb.Store().MergeNode("Fuzz", "post", nil)
		if err := rdb.Close(); err != nil {
			t.Fatalf("close after fuzzed recovery: %v", err)
		}
		requireBinaryDir(t, sub)
		rdb2, err := Open(sub, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("reopen after fuzzed recovery: %v", err)
		}
		if findNode(rdb2.Store(), "Fuzz", "post") == nil {
			t.Fatal("write after fuzzed recovery lost")
		}
		rdb2.Close()
	})
}
