package replication

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"securitykg/internal/graph"
	"securitykg/internal/storage"
)

// bigGroup commits one transaction of n node merges: a group of n+2
// records, far past frameCap for n in the tens of thousands.
func bigGroup(t testing.TB, st *graph.Store, n int, tag string) {
	t.Helper()
	tx := st.BeginTx()
	tx.SetBulk()
	for i := 0; i < n; i++ {
		tx.MergeNode("Host", fmt.Sprintf("%s-%06d", tag, i), map[string]string{"batch": tag})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// cutTransport severs the first tail stream after a number of body
// bytes, the way a dropped connection would: mid-frame, mid-group.
type cutTransport struct {
	after int
	cuts  atomic.Int32
}

func (c *cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/replication/wal") && c.cuts.Add(1) == 1 {
		resp.Body = &cutBody{ReadCloser: resp.Body, left: c.after}
	}
	return resp, err
}

type cutBody struct {
	io.ReadCloser
	left int
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := b.ReadCloser.Read(p[:min(len(p), b.left)])
	b.left -= n
	return n, err
}

// TestFollowerReconnectMidGroup: a group too large for one frame is
// split across several; the connection dies between two of them. The
// follower must never show a reader part of the group, must throw the
// piece it holds away, re-dial from the group's first record, and end up
// byte-identical to the leader — store and log position.
func TestFollowerReconnectMidGroup(t *testing.T) {
	ldb := openDB(t, t.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1, TailRecords: 1 << 20})
	defer ldb.Close()
	wr := newWriter(5)
	for i := 0; i < 50; i++ {
		wr.step(ldb.Store())
	}
	srv := leaderServer(t, ldb)

	fdir := t.TempDir()
	if err := Bootstrap(context.Background(), fdir, srv.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	fdb := openDB(t, fdir, storage.Options{Sync: storage.SyncNever, CompactBytes: -1})
	defer fdb.Close()
	repl := NewReplicator(fdb, srv.URL)
	repl.Backoff = fastBackoff()
	cut := &cutTransport{after: frameCap + frameCap/2}
	repl.Client = &http.Client{Transport: cut}

	const n = 20000
	bigGroup(t, ldb.Store(), n, "big")
	for i := 0; i < 20; i++ {
		wr.step(ldb.Store())
	}

	// A reader polling the follower sees none of the group or all of it.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	done := make(chan error, 1)
	go func() { defer wg.Done(); done <- repl.Run(ctx) }()
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			sn := fdb.Store().Snapshot()
			got := len(sn.NodeIDsByType("Host"))
			sn.Release()
			if got != 0 && got != n {
				t.Errorf("a reader saw %d of the group's %d nodes", got, n)
				return
			}
		}
	}()
	waitCaughtUp(t, repl, ldb.CommittedSeq())
	cancel()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cut.cuts.Load() < 2 || repl.Status().Reconnects == 0 {
		t.Fatalf("the stream was never severed and re-dialed: %d dials, status %+v", cut.cuts.Load(), repl.Status())
	}
	if !bytes.Equal(saveBytes(t, fdb.Store()), saveBytes(t, ldb.Store())) {
		t.Fatal("follower state differs from leader after a reconnect mid-group")
	}
	if fdb.LastSeq() != ldb.LastSeq() {
		t.Fatalf("follower WAL at seq %d, leader at %d", fdb.LastSeq(), ldb.LastSeq())
	}
	if mv := fdb.Store().MVCCStats(); mv != (graph.MVCCStats{}) {
		t.Errorf("follower left MVCC history behind: %+v", mv)
	}
}

// TestFollowerCatchUpFromDisk: a follower restarted far behind a leader
// whose in-memory tail holds a handful of records is fed from a scan of
// the leader's log file, in bounded batches that split groups wherever
// the cap falls, then from the tail once level — and converges.
func TestFollowerCatchUpFromDisk(t *testing.T) {
	ldb := openDB(t, t.TempDir(), storage.Options{Sync: storage.SyncNever, CompactBytes: -1, TailRecords: 16})
	defer ldb.Close()
	wr := newWriter(31)
	for i := 0; i < 60; i++ {
		wr.step(ldb.Store())
	}
	srv := leaderServer(t, ldb)
	fdir := t.TempDir()
	_, repl, stop := startFollower(t, fdir, srv.URL)
	waitCaughtUp(t, repl, ldb.CommittedSeq())
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 600; i++ {
		wr.step(ldb.Store())
	}
	bigGroup(t, ldb.Store(), 12000, "disk") // more than one frame, from the file
	for i := 0; i < 100; i++ {
		wr.step(ldb.Store())
	}
	fdb, repl2, _ := startFollower(t, fdir, srv.URL)
	waitCaughtUp(t, repl2, ldb.CommittedSeq())
	// And a live tail after the catch-up, over the same connection.
	for i := 0; i < 50; i++ {
		wr.step(ldb.Store())
	}
	waitCaughtUp(t, repl2, ldb.CommittedSeq())
	if !bytes.Equal(saveBytes(t, fdb.Store()), saveBytes(t, ldb.Store())) {
		t.Fatal("follower state differs from leader after a catch-up from disk")
	}
	if fdb.LastSeq() != ldb.LastSeq() {
		t.Fatalf("follower WAL at seq %d, leader at %d", fdb.LastSeq(), ldb.LastSeq())
	}
	if st := repl2.Status(); st.Reconnects != 0 {
		t.Errorf("catch-up needed %d reconnects, want one unbroken stream (last error %q)", st.Reconnects, st.LastError)
	}
}

// FuzzFrameReader feeds arbitrary bytes to the stream decoder: it never
// panics, holds no more than one frame of at most maxFrameLen, and hands
// the follower nothing but whole frames of a known kind with a matching
// CRC — whose bodies then either parse to the end or are rejected.
func FuzzFrameReader(f *testing.F) {
	frame, _ := recordsFrame(f, func(st *graph.Store) {
		st.MergeNode("Malware", "x", map[string]string{"a": "1"})
		tx := st.BeginTx()
		tx.MergeNode("IP", "10.0.0.1", nil)
		tx.SetAttr(1, "k", "v")
		tx.Commit()
	})
	hb := heartbeatFrame(nil, 1<<40, 1<<33)
	f.Add(frame)
	f.Add(hb)
	f.Add(append(append([]byte{}, frame...), hb...))
	f.Add(frame[:len(frame)-2])                                   // truncated body
	f.Add(append(append([]byte{}, hb...), 1, 2, 3))               // trailing bytes: a cut header
	f.Add(sealFrame(append(make([]byte, frameHdrLen), 9), 7))     // unknown kind
	f.Add(sealFrame(append(hb[:len(hb):len(hb)], 0), 2))          // heartbeat with a trailing byte
	f.Add(sealFrame(append(frame[:len(frame):len(frame)], 0), 1)) // records with a trailing byte
	flipped := append([]byte{}, frame...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped) // bad CRC
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			kind, body, err := fr.next()
			if cap(fr.buf) > maxFrameLen {
				t.Fatalf("reader holds %d bytes, past the %d-byte frame bound", cap(fr.buf), maxFrameLen)
			}
			if err != nil {
				return
			}
			switch kind {
			case frameHeartbeat:
				parseHeartbeat(body)
			case frameRecords:
				for len(body) > 0 {
					payload, rest, _, err := storage.NextWire(body)
					if err != nil {
						break
					}
					storage.DecodeWire(payload, new(storage.Record), nil)
					body = rest
				}
			default:
				t.Fatalf("reader passed on a frame of kind %d", kind)
			}
		}
	})
}
