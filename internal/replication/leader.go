package replication

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"securitykg/internal/storage"
)

// Leader serves the replication endpoints on a primary: snapshot
// transfers for follower bootstrap and the long-lived WAL tail stream.
// It holds no state of its own beyond configuration — the DB's tail
// buffer and log file are the sources of truth — so any number of
// followers can stream concurrently and a leader restart loses
// nothing but open connections.
type Leader struct {
	DB        *storage.DB
	Advertise string // base URL followers should be told about, e.g. http://host:8080

	// HeartbeatEvery bounds an idle stream's silence (zero: 2s).
	HeartbeatEvery time.Duration

	Log *log.Logger
}

func (l *Leader) logf(format string, args ...any) {
	if l.Log != nil {
		l.Log.Printf(format, args...)
	}
}

// Register mounts the replication endpoints on mux.
func (l *Leader) Register(mux *http.ServeMux) {
	mux.HandleFunc("/replication/snapshot", l.handleSnapshot)
	mux.HandleFunc("/replication/wal", l.handleWAL)
	mux.HandleFunc("/replication/status", l.handleStatus)
}

// Status reports the primary-side replication state.
func (l *Leader) Status() Status {
	return Status{
		Role:         "primary",
		Leader:       l.Advertise,
		LastSeq:      l.DB.LastSeq(),
		CommittedSeq: l.DB.CommittedSeq(),
		WALBytes:     l.DB.WALSize(),
	}
}

func (l *Leader) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(l.Status())
}

// handleSnapshot streams a binary snapshot of the current store. The
// covering WAL seq rides in the X-Skg-Seq header; the body is the
// snapshot.skg format verbatim, so the follower installs it untouched.
func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// The covering seq is only known once the store is quiesced, but
	// headers must precede the body. Send the committed watermark as a
	// hint header; the authoritative seq is inside the stream header
	// the follower verifies on install.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Skg-Seq", strconv.FormatUint(l.DB.CommittedSeq(), 10))
	seq, err := l.DB.WriteSnapshotTo(w)
	if err != nil {
		// Headers are gone; all we can do is cut the connection so the
		// follower sees a short body and fails header verification.
		l.logf("replication: snapshot transfer failed: %v", err)
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	}
	l.logf("replication: served snapshot through seq %d to %s", seq, r.RemoteAddr)
}

// handleWAL serves the tail stream: committed records with seq >= from,
// then heartbeats and more records as commits land, until the client
// disconnects. A from below what the leader can still serve gets 409
// with snapshot_required — the one case the follower cannot recover
// from by retrying.
func (l *Leader) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from parameter", http.StatusBadRequest)
		return
	}
	cur := l.DB.TailFrom(from)
	defer cur.Close()
	buf := make([]byte, frameHdrLen, 32<<10) // the frame being built, reused
	// nextFrame seals what is committed past the cursor, up to frameCap,
	// into one records frame; nil when there is nothing yet.
	nextFrame := func() ([]byte, error) {
		var n int
		if buf, n, err = cur.Next(buf[:frameHdrLen], frameCap); n == 0 {
			return nil, err
		}
		// Counts shipped records, not frames: the series predates batching.
		mFramesShipped.Add(int64(n))
		return sealFrame(buf, frameRecords), nil
	}

	// Resolve the first frame before committing to a 200: this is where
	// "leader can't serve that far back" surfaces as a clean 409. The wake
	// channel is fetched before each read of the log, so a commit landing
	// after the read still ends the wait.
	notify := l.DB.TailNotify()
	frame, err := nextFrame()
	if errors.Is(err, storage.ErrTailTruncated) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]any{
			"error":             fmt.Sprintf("records from seq %d no longer available", from),
			"snapshot_required": true,
		})
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	hb := time.NewTicker(cmp.Or(max(l.HeartbeatEvery, 0), 2*time.Second))
	defer hb.Stop()
	var hbBuf []byte
	for {
		if frame == nil {
			// Everything committed is shipped: sleep until more is.
			select {
			case <-ctx.Done():
				return
			case <-notify:
			case <-hb.C:
				hbBuf = heartbeatFrame(hbBuf, l.DB.CommittedSeq(), l.DB.WALSize())
				frame = hbBuf
			}
		}
		if frame != nil {
			if _, err := w.Write(frame); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		notify = l.DB.TailNotify()
		if frame, err = nextFrame(); err != nil {
			// Evicted under a live stream, past the disk too: the follower
			// reconnects and gets the 409 + snapshot.
			l.logf("replication: stream to %s lost its place in the log: %v", r.RemoteAddr, err)
			return
		}
	}
}
