package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/jsonenc"
	"securitykg/internal/search"
)

// FuzzJSONString holds the one JSON string escaper (jsonenc) to
// encoding/json byte for byte, on a string and on its bytes (a rendered
// cell), and where graph.Attrs marshals a key and a value: whatever a
// string contains, a body is the body json.Encoder used to write.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `quote " backslash \`, "ctl \x00\x01\x1f \b\f\n\r\t", "<a href='x'>&amp;</a>",
		"sep \u2028 \u2029", "bad \xff\xc0\xaf utf8 \xe2\x80", "☃ 漢字 \U0001F600", "\x7f",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		if got := jsonenc.AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		if got := jsonenc.AppendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("AppendString([]byte(%q)) = %s, json.Marshal = %s", s, got, want)
		}
		attrs := graph.Attrs{{Key: s, Val: s}}
		want, _ = json.Marshal(map[string]string{s: s})
		if got, _ := json.Marshal(attrs); !bytes.Equal(got, want) {
			t.Errorf("Attrs{%q: %q} marshals to %s, the map to %s", s, s, got, want)
		}
	})
}

// flushRecorder is a ResponseWriter that records when each Flush
// happened and how many bytes had been written by then.
type flushRecorder struct {
	mu      sync.Mutex
	hdr     http.Header
	buf     bytes.Buffer
	flushes []int // bytes written at each flush
}

func (f *flushRecorder) Header() http.Header { return f.hdr }
func (f *flushRecorder) WriteHeader(int)     {}
func (f *flushRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buf.Write(p)
}
func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes = append(f.flushes, f.buf.Len())
}
func (f *flushRecorder) flushCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.flushes)
}

// TestNDJSONFlushRule: the header leaves with the first row, at once; a
// row written behind it is pushed by the timer within flushEvery without
// any further write (the slow-producer case: the next row may be
// seconds away); a burst shares flushes instead of paying one per row;
// and nothing touches the ResponseWriter after close.
func TestNDJSONFlushRule(t *testing.T) {
	rec := &flushRecorder{hdr: http.Header{}}
	nw := newNDJSONWriter(rec)
	row := []cypher.Value{cypher.StringValue("a"), cypher.NumberValue(2)}
	if err := nw.header([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if n := rec.flushCount(); n != 0 {
		t.Fatalf("header alone flushed %d times", n)
	}
	if err := nw.row(row); err != nil {
		t.Fatal(err)
	}
	if n := rec.flushCount(); n != 1 {
		t.Fatalf("first row: %d flushes, want 1 immediately", n)
	}
	if want := "{\"columns\":[\"x\",\"y\"]}\n{\"row\":[\"a\",\"2\"]}\n"; rec.buf.String() != want || rec.flushes[0] != len(want) {
		t.Fatalf("first flush carried %q (%d bytes flushed)", rec.buf.String(), rec.flushes[0])
	}
	// One more row, then silence: the timer must push it.
	if err := nw.row(row); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for rec.flushCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("a row behind the first was never flushed while the producer was idle")
		}
		time.Sleep(flushEvery / 4)
	}
	// A burst: far fewer flushes than rows.
	before := rec.flushCount()
	for i := 0; i < 5000; i++ {
		if err := nw.row(row); err != nil {
			t.Fatal(err)
		}
	}
	if n := rec.flushCount() - before; n > 500 {
		t.Errorf("5000 back-to-back rows cost %d flushes", n)
	}
	nw.close()
	after := rec.flushCount()
	time.Sleep(3 * flushEvery)
	if n := rec.flushCount(); n != after {
		t.Errorf("%d flushes after close", n-after)
	}
}

// stallWriter is a client that reads limit bytes and then stops: Write
// and Flush block from then on until release is closed, and stalled is
// closed the first time one of them blocks.
type stallWriter struct {
	hdr      http.Header
	limit    int
	n        int
	once     sync.Once
	stalled  chan struct{}
	released chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) block() {
	w.once.Do(func() { close(w.stalled) })
	<-w.released
}
func (w *stallWriter) Write(p []byte) (int, error) {
	if w.n += len(p); w.n > w.limit {
		w.block()
	}
	return len(p), nil
}
func (w *stallWriter) Flush() {
	if w.n > w.limit {
		w.block()
	}
}

// TestStreamStalledClientBlocksNobody: a streaming handler stuck in a
// write to a client that stopped reading holds no store lock — node
// reads are chunked and every chunk's lock is released before a row is
// handed to the transport — so writers, commits and new snapshots
// proceed, and once the client goes away the snapshot the stream pinned
// is released.
func TestStreamStalledClientBlocksNobody(t *testing.T) {
	store := graph.New()
	for i := 0; i < 2000; i++ {
		store.MergeNode("T", fmt.Sprintf("n%04d", i), nil)
	}
	s := NewWith(store, search.NewIndex(nil), cypher.Options{UseIndexes: true})
	w := &stallWriter{hdr: http.Header{}, limit: 4096, stalled: make(chan struct{}), released: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]any{"query": `match (n:T) return n.name`, "stream": true})
	req := httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)).WithContext(ctx)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		s.ServeHTTP(w, req)
	}()
	select {
	case <-w.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream never reached the stalled client's limit")
	}

	// The handler is now parked inside Write or Flush, mid-scan.
	unblocked := make(chan struct{})
	go func() {
		defer close(unblocked)
		store.MergeNode("T", "written-while-stalled", nil)
		eng := cypher.NewEngine(store, cypher.Options{UseIndexes: true})
		if _, err := eng.Query(`match (n:T {name: "n0001"}) set n.seen = "yes"`, nil); err != nil {
			t.Error(err)
		}
		store.Snapshot().Release()
		res, err := eng.Query(`match (n:T) return count(*)`, nil)
		if err != nil || res.Rows[0][0].Num != 2001 {
			t.Errorf("read beside the stalled stream: %v %v", res, err)
		}
	}()
	select {
	case <-unblocked:
	case <-time.After(10 * time.Second):
		t.Fatal("a writer, a commit or Store.Snapshot() blocked behind a stream whose client stopped reading")
	}
	if st := store.MVCCStats(); st.Snapshots != 1 {
		t.Errorf("stalled stream should still pin exactly its snapshot: %+v", st)
	}

	// The client goes away.
	cancel()
	close(w.released)
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after the client went away")
	}
	if st := store.MVCCStats(); st != (graph.MVCCStats{}) {
		t.Errorf("MVCC overlay after the stream ended: %+v", st)
	}
}
