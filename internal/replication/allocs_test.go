//go:build !race

// Allocation regression guards (plain build only: the race detector
// instruments allocations).

package replication

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"securitykg/internal/graph"
	"securitykg/internal/storage"
)

// mallocs runs fn and returns how many heap objects, and how many bytes,
// it allocated.
func mallocs(fn func()) (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	objects, bytes = ms.Mallocs, ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - objects, ms.TotalAlloc - bytes
}

// TestShipAndApplyGroupAllocs prices one 500-row commit group between
// the leader's tail and the follower's store. Shipping it — the tail's
// bytes into a reused frame buffer, one CRC — allocates nothing per
// record (at most a cursor and a grown buffer per group); reading the
// frame off the stream allocates nothing at all; decoding and applying
// it costs the follower a small constant per record, all of it the
// graph's own (strings, the node, its index entries) — no map or struct
// per record for the wire, and no undo map or log buffer per group: the
// group's transaction borrows the store's. The count cannot see the
// borrowed maps (a map grows in few, large steps), so the bytes are
// pinned too: 547 a record while every group made its own.
func TestShipAndApplyGroupAllocs(t *testing.T) {
	ldb, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	fdb, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	repl := NewReplicator(fdb, "")

	const rows, rounds = 500, 20
	cur := ldb.TailFrom(1)
	defer cur.Close()
	buf := make([]byte, frameHdrLen, 64<<10)
	fr := newFrameReader(bytes.NewReader(nil))
	var stream bytes.Reader
	var shipAllocs, readAllocs, applyAllocs, applyBytes uint64
	for round := 0; round < rounds; round++ {
		tx := ldb.Store().BeginTx()
		for i := 0; i < rows; i++ {
			id := tx.MergeNode("IP", fmt.Sprintf("10.%d.%d.%d", round, i/250, i%250), nil).Node.ID
			tx.SetAttr(id, "last_seen", "2026-01-01T00:00:00Z")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		var frame []byte
		ship, _ := mallocs(func() {
			var n int
			buf, n, _ = cur.Next(buf[:frameHdrLen], frameCap)
			if n != 2*rows+2 {
				t.Fatalf("round %d: shipped %d records, want %d", round, n, 2*rows+2)
			}
			frame = sealFrame(buf, frameRecords)
		})
		stream.Reset(frame)
		fr.br.Reset(&stream)
		var body []byte
		read, _ := mallocs(func() { _, body, err = fr.next() })
		if err != nil {
			t.Fatal(err)
		}
		apply, applyB := mallocs(func() { err = repl.handleRecords(body) })
		if err != nil {
			t.Fatal(err)
		}
		if round >= rounds/2 { // buffers grown, maps sized
			shipAllocs, readAllocs, applyAllocs, applyBytes = shipAllocs+ship, readAllocs+read, applyAllocs+apply, applyBytes+applyB
		}
	}
	if fdb.LastSeq() != ldb.LastSeq() {
		t.Fatalf("follower at seq %d, leader at %d", fdb.LastSeq(), ldb.LastSeq())
	}
	n := uint64(rounds - rounds/2)
	if got := shipAllocs / n; got > 2 {
		t.Errorf("shipping a %d-record group allocates %d times, want <= 2", 2*rows+2, got)
	}
	if readAllocs > 0 {
		t.Errorf("reading %d frames off the stream allocated %d times, want 0", n, readAllocs)
	}
	records := float64(n * (2*rows + 2))
	got, gotBytes := float64(applyAllocs)/records, float64(applyBytes)/records
	if got > 8 {
		t.Errorf("follower decode+apply allocates %.1f times per record, want <= 8", got)
	}
	const maxApplyBytes = 460
	if gotBytes > maxApplyBytes {
		t.Errorf("follower decode+apply allocates %.0f B per record, want <= %d", gotBytes, maxApplyBytes)
	}
	t.Logf("follower decode+apply: %.2f allocs, %.0f B a record; ship: %d/group", got, gotBytes, shipAllocs/n)
	if mv := fdb.Store().MVCCStats(); mv != (graph.MVCCStats{}) {
		t.Errorf("follower left MVCC history behind: %+v", mv)
	}
}
