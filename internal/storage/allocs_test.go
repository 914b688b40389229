//go:build !race

// Allocation regression guards. AllocsPerRun numbers are meaningless
// under the race detector (it instruments allocations), so these run in
// the plain-build test pass `make test` adds alongside the -race suite.

package storage

import (
	"path/filepath"
	"testing"

	"securitykg/internal/graph"
)

// TestWALAppendAllocs locks down the binary append hot path: with the
// scratch buffers grown, framing and encoding a record must not allocate
// (the record's own payload bytes travel through reused buffers straight
// into the bufio writer).
func TestWALAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(filepath.Join(dir, walFile), 0, 0, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mut := graph.Mutation{Op: graph.OpSetAttr, Node: 7, Key: "score", Val: "9"}
	// Warm: grow the scratch buffers.
	for i := 0; i < 4; i++ {
		if _, _, err := w.Append(mut, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := w.Append(mut, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("binary WAL append allocates %.1f/op warm, want 0", allocs)
	}

	// Attr-carrying records may allocate for map iteration scratch but
	// must stay bounded — a regression to per-append JSON-style encoding
	// shows up as dozens of allocations.
	mutAttrs := graph.Mutation{Op: graph.OpMergeNode, Type: "Malware", Name: "m",
		Attrs: map[string]string{"seen": "1", "family": "trojan"}}
	for i := 0; i < 4; i++ {
		if _, _, err := w.Append(mutAttrs, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, _, err := w.Append(mutAttrs, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("binary WAL append with attrs allocates %.1f/op warm, want <= 2", allocs)
	}
}

// TestLogMutationAllocs pins the whole hook — WAL append plus the
// replication tail's copy of its payload — at zero allocations per record once
// warm, amortized over commit groups (a waiter's wake channel is the one
// allocation a commit may cost, and only while somebody waits): the
// tail keeps bytes in a buffer it compacts in place, not a struct and a
// cloned attribute map per record.
func TestLogMutationAllocs(t *testing.T) {
	db, err := Open(t.TempDir(), Options{Sync: SyncNever, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	group := []graph.Mutation{{Op: graph.OpTxBegin}}
	for i := 0; i < 500; i++ {
		m := graph.Mutation{Op: graph.OpSetAttr, Node: graph.NodeID(i + 1), Key: "last_seen", Val: "2026-01-01T00:00:00Z"}
		if i%5 == 0 {
			m = graph.Mutation{Op: graph.OpMergeNode, Type: "IP", Name: "10.0.0.1", Attrs: map[string]string{"seen": "1", "asn": "64512"}}
		}
		group = append(group, m)
	}
	group = append(group, graph.Mutation{Op: graph.OpTxCommit})
	logGroup := func() {
		for _, m := range group {
			db.logMutation(m)
		}
	}
	for i := 0; i < 40; i++ { // past the tail's record cap: eviction and compaction are warm too
		logGroup()
	}
	if allocs := testing.AllocsPerRun(50, logGroup); allocs > 0 {
		t.Errorf("logging a %d-record group allocates %.1f times warm, want 0", len(group), allocs)
	}
	db.TailNotify()
	if allocs := testing.AllocsPerRun(50, func() { logGroup(); db.TailNotify() }); allocs > 1 {
		t.Errorf("logging a %d-record group with a waiter allocates %.1f times, want <= 1", len(group), allocs)
	}
}
