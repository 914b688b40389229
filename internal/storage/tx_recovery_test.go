package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"securitykg/internal/graph"
)

// This file extends the crash-recovery harness (storage_test.go,
// crash_test.go) to transactional logs: WALs whose records mix bare
// mutations, committed multi-mutation groups, and — at arbitrary cut
// points — groups whose commit record never landed. The recovery
// contract under test: the recovered store is byte-identical to the
// fold of exactly the committed prefix, dangling groups are discarded
// like torn records, and the directory stays writable afterwards.

// txMutGen layers transaction structure over mutGen's deterministic
// operation stream: a batch is either one bare mutation or a store
// transaction of several steps, committed (one atomic WAL group) or
// rolled back (nothing logged). Same seed, same stream, on any store.
type txMutGen struct {
	g *mutGen
	// big makes one transaction in eight thousands of steps long: its
	// group outgrows the log's 64 KB buffer, so part of it is on disk
	// before the commit marker is. The crash harness sets it.
	big bool
}

func newTxMutGen(seed int64) *txMutGen { return &txMutGen{g: newMutGen(seed)} }

// batch applies one atomic unit to st. On rollback the generator's
// id-tracking state is restored too, so later batches never reference
// entities that were undone.
func (tg *txMutGen) batch(st *graph.Store) {
	r := tg.g.rng.Intn(100)
	if r < 40 {
		tg.g.step(bareWrites{st})
		return
	}
	rollback := r >= 90
	savedN := append([]graph.NodeID(nil), tg.g.nodes...)
	savedE := append([]graph.EdgeID(nil), tg.g.edges...)
	tx := st.BeginTx()
	n := 2 + tg.g.rng.Intn(4)
	if tg.big && tg.g.rng.Intn(8) == 0 {
		n = 3000
	}
	for i := 0; i < n; i++ {
		tg.g.step(txWrites{tx})
	}
	if rollback {
		tx.Rollback()
		tg.g.nodes, tg.g.edges = savedN, savedE
		return
	}
	tx.Commit()
}

// committedFold is the test's independent reimplementation of
// transactional replay: bare records apply directly, a group's records
// buffer and apply only when its commit record follows, and anything
// else is dropped. Returns the folded store plus how many records were
// discarded, mirroring RecoveryInfo.TxDiscarded.
func committedFold(t *testing.T, recs []Record) (*graph.Store, int) {
	t.Helper()
	st := graph.New()
	inTx := false
	var pending []graph.Mutation
	discarded := 0
	apply := func(m graph.Mutation) {
		if err := st.Apply(m); err != nil {
			t.Fatalf("oracle apply %v: %v", m.Op, err)
		}
	}
	for _, rec := range recs {
		switch rec.Op {
		case graph.OpTxBegin:
			if inTx {
				discarded += len(pending) + 1
			}
			pending, inTx = pending[:0], true
		case graph.OpTxCommit:
			if inTx {
				for _, m := range pending {
					apply(m)
				}
				pending, inTx = pending[:0], false
			}
		case graph.OpTxRollback:
			if inTx {
				discarded += len(pending) + 2
				pending, inTx = pending[:0], false
			}
		default:
			if inTx {
				pending = append(pending, rec.Mutation())
			} else {
				apply(rec.Mutation())
			}
		}
	}
	if inTx {
		discarded += len(pending) + 1
	}
	return st, discarded
}

// TestTornTailEveryOffsetTx is TestTornTailEveryOffset for a
// transactional log: cut the WAL at every byte offset — including mid
// group, where a crash between a commit's flush frames would land —
// and recovery must produce exactly the committed-prefix fold, report
// the discarded group, and leave the directory writable and binary.
// An earlier build's recorded directory — its log holds transaction
// groups too — cut the same way beside its snapshot is refused
// (testEarlierLogEveryOffset).
func TestTornTailEveryOffsetTx(t *testing.T) {
	t.Run("binary", testTornTailEveryOffsetTx)
	t.Run("json", func(t *testing.T) { testEarlierLogEveryOffset(t, earlierDirs[0].dir, true) })
	t.Run("skgwal2", func(t *testing.T) { testEarlierLogEveryOffset(t, earlierDirs[1].dir, true) })
}

func testTornTailEveryOffsetTx(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{Sync: SyncNever, CompactBytes: -1})
	tg := newTxMutGen(3)
	for i := 0; i < 30; i++ {
		tg.batch(db.Store())
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	full := scanWAL(bytes.NewReader(walBytes))
	if full.torn || len(full.records) == 0 {
		t.Fatalf("clean log scans torn=%v records=%d", full.torn, len(full.records))
	}
	groups := 0
	for _, rec := range full.records {
		if rec.Op == graph.OpTxBegin {
			groups++
		}
	}
	if groups < 2 {
		t.Fatalf("seed built only %d transaction groups — log does not exercise the fold", groups)
	}

	step := 1
	if testing.Short() {
		step = 13
	}
	for cut := 0; cut <= len(walBytes); cut += step {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walFile), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := Open(sub, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		pre := scanWAL(bytes.NewReader(walBytes[:cut]))
		want, wantDiscarded := committedFold(t, pre.records)
		if got := saveBytes(t, rdb.Store()); !bytes.Equal(got, saveBytes(t, want)) {
			t.Fatalf("cut=%d: recovered store is not the committed-prefix fold", cut)
		}
		if rdb.Recovered.TxDiscarded != wantDiscarded {
			t.Fatalf("cut=%d: TxDiscarded=%d want %d", cut, rdb.Recovered.TxDiscarded, wantDiscarded)
		}
		if wantDiscarded > 0 && !rdb.Recovered.TornTail {
			t.Fatalf("cut=%d: dangling group was not reported as a torn tail", cut)
		}
		// The truncated directory must accept new writes cleanly.
		rdb.Store().MergeNode("Post", "recovery", nil)
		if err := rdb.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		requireBinaryDir(t, sub)
		rdb2, err := Open(sub, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("cut=%d: reopen after post-recovery write: %v", cut, err)
		}
		if findNode(rdb2.Store(), "Post", "recovery") == nil {
			t.Fatalf("cut=%d: post-recovery write lost", cut)
		}
		rdb2.Close()
	}
}

// TestCrashProcessKillTx is TestCrashProcessKill with a transactional
// writer: the re-exec'd child applies the seed's batch stream —
// committed groups, rollbacks, bare mutations — until SIGKILLed, and
// recovery must land exactly on a batch boundary: the recovered state
// equals the prefix of the stream that emitted LastSeq WAL records
// (wrapper records included), replayed through a fresh in-memory store.
// A group leaves the process in one write at its commit marker; the
// later rounds add groups larger than the log's buffer, and then the
// interval sync, so the kill also lands on groups partly pushed out; that
// round waits one sync interval longer, so a sync has run before the kill.
func TestCrashProcessKillTx(t *testing.T) {
	if dir := os.Getenv("SKG_CRASH_TX_DIR"); dir != "" {
		crashTxChild(t, dir)
		return
	}
	if testing.Short() {
		t.Skip("process-kill crash test skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; round < 3; round++ {
		seed := rng.Int63()
		dir := t.TempDir()
		cmd := exec.Command(exe, "-test.run", "^TestCrashProcessKillTx$", "-test.v")
		mode := []string{"", "big", "big,interval"}[round]
		cmd.Env = append(os.Environ(),
			"SKG_CRASH_TX_DIR="+dir,
			"SKG_CRASH_TX_MODE="+mode,
			"SKG_CRASH_CHILD_SEED="+strconv.FormatInt(seed, 10))
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		wait := time.Duration(20+rng.Intn(120)) * time.Millisecond
		if strings.Contains(mode, "interval") {
			wait += syncEvery
		}
		time.Sleep(wait)
		cmd.Process.Kill()
		cmd.Wait()

		db, err := Open(dir, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("round %d (seed %d): recovery failed: %v", round, seed, err)
		}
		if db.Recovered.TxDiscarded > 0 && !db.Recovered.TornTail {
			t.Fatalf("round %d (seed %d): discarded a group without reporting a torn tail", round, seed)
		}
		k := db.LastSeq()
		got := saveBytes(t, db.Store())
		db.Close()

		// Oracle: replay the same deterministic batch stream on a bare
		// in-memory store, counting emitted records (the mutation hook
		// fires once per WAL record, tx_begin/tx_commit included).
		// Recovery discards dangling groups, so k must land exactly on a
		// batch boundary — stepping past it means recovery kept a partial
		// group.
		ref := graph.New()
		var emitted uint64
		ref.SetMutationHook(func(graph.Mutation) { emitted++ })
		tg := newTxMutGen(seed)
		tg.big = mode != ""
		for emitted < k {
			tg.batch(ref)
		}
		ref.SetMutationHook(nil)
		if emitted != k {
			t.Fatalf("round %d (seed %d): batch stream stepped past seq %d (at %d) — recovery cut inside a group?",
				round, seed, k, emitted)
		}
		if want := saveBytes(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("round %d (seed %d): recovered store (seq %d) is not the committed batch-prefix fold",
				round, seed, k)
		}
		t.Logf("round %d: killed at seq %d (%d tx records discarded), recovery byte-identical",
			round, k, db.Recovered.TxDiscarded)
	}
}

// crashTxChild is the transactional writer the parent kills.
func crashTxChild(t *testing.T, dir string) {
	seed, err := strconv.ParseInt(os.Getenv("SKG_CRASH_CHILD_SEED"), 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child: bad seed:", err)
		os.Exit(2)
	}
	mode := os.Getenv("SKG_CRASH_TX_MODE")
	opts := Options{Sync: SyncNever, CompactBytes: -1}
	if strings.Contains(mode, "interval") {
		opts.Sync = SyncInterval
	}
	db, err := Open(dir, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child: open:", err)
		os.Exit(2)
	}
	tg := newTxMutGen(seed)
	tg.big = mode != ""
	for {
		tg.batch(db.Store())
	}
}
