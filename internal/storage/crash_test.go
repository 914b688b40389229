package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"securitykg/internal/graph"
)

// TestCrashProcessKill is the real-process half of the crash-recovery
// property (`make crash-test` runs it repeatedly): a child process —
// this test binary re-exec'd in writer mode — applies the deterministic
// mutation stream of a random seed to a durable store as fast as it
// can, the parent SIGKILLs it at a random moment (so the WAL is cut at
// an arbitrary byte offset, possibly mid-record), and recovery must
// produce exactly the state reached by some prefix of that stream:
// the recovered LastSeq names the prefix, and replaying that many
// effective mutations through a fresh in-memory store must match the
// recovered store's Save output byte for byte.
func TestCrashProcessKill(t *testing.T) {
	if dir := os.Getenv("SKG_CRASH_CHILD_DIR"); dir != "" {
		crashChild(t, dir)
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
	rounds := 3
	for round := 0; round < rounds; round++ {
		seed := rng.Int63()
		dir := t.TempDir()
		cmd := exec.Command(exe, "-test.run", "^TestCrashProcessKill$", "-test.v")
		cmd.Env = append(os.Environ(),
			"SKG_CRASH_CHILD_DIR="+dir,
			"SKG_CRASH_CHILD_SEED="+strconv.FormatInt(seed, 10))
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Let the child get some writes out, then kill it mid-flight.
		time.Sleep(time.Duration(20+rng.Intn(120)) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		db, err := Open(dir, Options{Sync: SyncNever, CompactBytes: -1})
		if err != nil {
			t.Fatalf("round %d (seed %d): recovery failed: %v", round, seed, err)
		}
		k := db.LastSeq()
		got := saveBytes(t, db.Store())
		db.Close()

		// Independently refold the first k effective mutations of the
		// child's deterministic stream.
		ref := graph.New()
		var applied uint64
		ref.SetMutationHook(func(graph.Mutation) { applied++ })
		g := newMutGen(seed)
		for applied < k {
			g.step(bareWrites{ref})
		}
		if applied != k {
			t.Fatalf("round %d (seed %d): generator stepped past seq %d (at %d)", round, seed, k, applied)
		}
		ref.SetMutationHook(nil)
		if want := saveBytes(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("round %d (seed %d): recovered store (seq %d) is not the %d-mutation prefix fold",
				round, seed, k, k)
		}
		t.Logf("round %d: killed at seq %d, recovery byte-identical", round, k)
	}
}

// crashChild is the writer the parent kills: it opens the data
// directory and applies the seed's mutation stream until murdered.
func crashChild(t *testing.T, dir string) {
	seed, err := strconv.ParseInt(os.Getenv("SKG_CRASH_CHILD_SEED"), 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child: bad seed:", err)
		os.Exit(2)
	}
	db, err := Open(dir, Options{Sync: SyncNever, CompactBytes: -1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child: open:", err)
		os.Exit(2)
	}
	g := newMutGen(seed)
	for {
		g.step(bareWrites{db.Store()})
	}
}
