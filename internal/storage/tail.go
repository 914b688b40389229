package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"securitykg/internal/graph"
)

// This file is the storage side of WAL-shipping replication
// (internal/replication): an in-memory tail of recently appended
// records, kept as the run a follower stream carries (codec.go: each
// record's length, then its payload — the bytes the log file holds), so
// a leader serves streams by copying bytes; a committed watermark that
// stops streams at group boundaries (a follower never observes an
// uncommitted prefix); a cursor that falls back to copying payloads out
// of the log file; and snapshot export/install. A payload decodes alone,
// so a stream can start at any seq.

// groupTracker follows transaction markers through a record sequence.
// The DB keeps the only one and tells the log and the tail (logMutation).
type groupTracker struct{ inTx bool }

// boundary reports whether the sequence is at a group boundary after
// op: the only points a log flush or a stream may stop.
func (g *groupTracker) boundary(op graph.MutationOp) bool {
	switch op {
	case graph.OpTxBegin:
		g.inTx = true
	case graph.OpTxCommit, graph.OpTxRollback:
		g.inTx = false
	}
	return !g.inTx
}

// replTail buffers the most recent WAL records as one wire batch with
// an index of where each record ends. Records are contiguous by seq;
// eviction advances head, and once half the index is evicted the live
// half moves down in place, so the steady state allocates nothing.
// committed, the last seq at a group boundary, is where streams stop.
type replTail struct {
	mu        sync.Mutex
	buf       []byte
	ends      []int // ends[i]: where record base+i ends in buf
	base      uint64
	head      int // ends[:head] are evicted
	maxRecs   int
	maxBytes  int
	committed uint64
	notify    chan struct{} // closed and replaced when committed advances
	armed     bool          // notify has been handed out since it was made
}

func newReplTail(lastSeq uint64, maxRecs int, maxBytes int64) *replTail {
	if maxRecs <= 0 {
		maxRecs = 8192
	}
	if maxBytes <= 0 {
		maxBytes = 8 << 20
	}
	return &replTail{
		base:      lastSeq + 1,
		committed: lastSeq,
		maxRecs:   maxRecs,
		maxBytes:  int(maxBytes),
		notify:    make(chan struct{}),
	}
}

// start returns where record base+i begins in buf.
func (t *replTail) start(i int) int {
	if i == 0 {
		return 0
	}
	return t.ends[i-1]
}

// add copies the just-logged record's payload, numbered seq; nothing of
// payload is retained. At a boundary committed moves to seq.
func (t *replTail) add(seq uint64, payload []byte, boundary bool) {
	t.mu.Lock()
	t.buf = appendWire(t.buf, payload)
	t.ends = append(t.ends, len(t.buf))
	for n := len(t.ends); n-t.head > 1 && (n-t.head > t.maxRecs || len(t.buf)-t.start(t.head) > t.maxBytes); {
		t.head++
	}
	if t.head > len(t.ends)/2 {
		dead := t.start(t.head)
		t.buf = t.buf[:copy(t.buf, t.buf[dead:])]
		live := t.ends[t.head:]
		for i, e := range live {
			t.ends[i] = e - dead
		}
		t.ends, t.base, t.head = t.ends[:len(live)], t.base+uint64(t.head), 0
	}
	var wake chan struct{}
	if boundary {
		if t.committed = seq; t.armed {
			wake, t.notify, t.armed = t.notify, make(chan struct{}), false
		}
	}
	t.mu.Unlock()
	if wake != nil {
		close(wake)
	}
}

// cut forgets every buffered record (the next added is seq next): no
// stream may cross the hole a failed append leaves. The re-basing checkpoint
// truncates the file too, so a follower behind it gets ErrTailTruncated.
func (t *replTail) cut(next uint64) {
	t.mu.Lock()
	t.buf, t.ends, t.head, t.base = t.buf[:0], t.ends[:0], 0, next
	t.mu.Unlock()
}

// collect appends to batch the records from..last (TailCursor.Next
// gives the rule; from-1: nothing to ship). ok is false when the buffer
// no longer reaches back to from.
func (t *replTail) collect(batch []byte, from uint64, limit int) (out []byte, last uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from > t.committed {
		return batch, from - 1, true
	}
	if from < t.base+uint64(t.head) {
		return batch, from - 1, false
	}
	i := int(from - t.base)
	begin, n := t.start(i), int(t.committed-from)+1
	if fit := sort.Search(n, func(k int) bool { return t.ends[i+k]-begin > limit }); fit < n {
		n = max(fit, 1)
	}
	return append(batch, t.buf[begin:t.ends[i+n-1]]...), from + uint64(n) - 1, true
}

// --- DB surface consumed by internal/replication ---

// CommittedSeq returns the seq of the last WAL record at a group
// boundary: the highest record a replication stream may ship, and the
// leader-side "read your writes" watermark.
func (db *DB) CommittedSeq() uint64 {
	db.tail.mu.Lock()
	defer db.tail.mu.Unlock()
	return db.tail.committed
}

// TailNotify returns a channel closed the next time the committed
// watermark advances. Fetch it before reading the log — a commit landing
// between the read and the wait then still wakes the waiter — and
// re-fetch after each wake.
func (db *DB) TailNotify() <-chan struct{} {
	db.tail.mu.Lock()
	defer db.tail.mu.Unlock()
	db.tail.armed = true
	return db.tail.notify
}

// ErrTailTruncated: neither the tail nor the log file reaches back to the
// cursor's position (a checkpoint truncated it): the follower needs a snapshot.
var ErrTailTruncated = errors.New("storage: the log no longer reaches back that far")

// TailCursor reads the committed log from a sequence number on, in wire
// batches of bounded size: out of the in-memory tail while that reaches
// back to its position, otherwise (a follower far behind, or a restarted
// leader) out of a scan of the log file — one batch of memory, not the log.
type TailCursor struct {
	db   *DB
	from uint64 // next seq to hand out

	// The file scan, while one is open: it hands out records up to the
	// watermark committed when it was opened.
	f       *os.File
	sc      *walScanner
	through uint64
	primed  bool // the scanner holds the file's first record, not yet consumed
}

// TailFrom returns a cursor over committed records from seq on; Close it.
func (db *DB) TailFrom(from uint64) *TailCursor { return &TailCursor{db: db, from: max(from, 1)} }

// Next appends to batch the next committed records and returns how many:
// everything committed past the cursor, ending on a transaction-group
// boundary, unless that is over limit bytes: then the batch ends where
// limit falls (one record at least). Zero: nothing is committed there yet,
// wait on TailNotify. The error is ErrTailTruncated or the log not opening.
func (c *TailCursor) Next(batch []byte, limit int) ([]byte, int, error) {
	start := c.from
	for scanned := false; ; {
		if c.sc != nil {
			if batch = c.scan(batch, limit); c.from > start {
				return batch, int(c.from - start), nil
			}
			// Watermark reached, or a read torn by a concurrent truncation:
			// see whether the tail reaches back this far by now.
			c.Close()
			scanned = true
		}
		var last uint64
		var ok bool
		batch, last, ok = c.db.tail.collect(batch, c.from, limit)
		if c.from = last + 1; ok || scanned {
			return batch, int(c.from - start), nil // nothing, after a scan: a commit will start another
		}
		f, err := os.Open(filepath.Join(c.db.dir, walFile))
		if err != nil {
			return batch, 0, fmt.Errorf("storage: tail scan: %w", err)
		}
		c.f, c.sc, c.through = f, newWALScanner(f), c.db.CommittedSeq()
		if c.primed = c.sc.next(); !c.primed || c.sc.lastSeq > c.from {
			// Empty log, or its oldest surviving record is already past
			// the cursor: the gap is only recoverable via snapshot.
			c.Close()
			return batch, 0, ErrTailTruncated
		}
	}
}

// scan copies file records into batch until it has grown by limit
// bytes. The scanner hands out a gapless sequence from a first record
// Next checked is not past c.from, so it reaches c.from and then keeps
// to it: a record of a file restarted under the scan breaks the sequence
// and ends it, like a torn read.
func (c *TailCursor) scan(batch []byte, limit int) []byte {
	limit += len(batch)
	for len(batch) < limit && (c.primed || c.sc.next()) {
		c.primed = false
		switch seq := c.sc.lastSeq; {
		case seq > c.through:
			c.sc.torn = true // nothing more from this file
		case seq == c.from:
			batch = appendWire(batch, c.sc.cur)
			c.from++
		}
	}
	return batch
}

// Close releases the log file if a scan has it open.
func (c *TailCursor) Close() {
	if c.sc != nil {
		c.f.Close()
		c.f, c.sc = nil, nil
	}
}

// WriteSnapshotTo streams a snapshot of the current store — the bytes a
// checkpoint at this moment would land as snapshot.skg (writeSnapshot) —
// to w, returning the covering WAL sequence number. This is the leader
// side of a replication catch-up transfer.
func (db *DB) WriteSnapshotTo(w io.Writer) (uint64, error) {
	seq, _, err := db.writeSnapshot(w)
	return seq, err
}

// HasState reports whether dir already holds durable state (a snapshot,
// a JSON-era one included, or a WAL): a replica data directory with
// state resumes from it — or, if an earlier build wrote it, meets Open's
// refusal — instead of re-bootstrapping over it.
func HasState(dir string) bool {
	for _, name := range []string{snapshotBinFile, jsonSnapshotFile, walFile} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}

// InstallSnapshot lands the snapshot stream r (the WriteSnapshotTo /
// snapshot.skg format) in dir (landSnapshot: atomic, header-checked).
// The directory must not be open as a DB (Open takes the flock). A
// subsequent Open recovers from the installed snapshot; a crash
// mid-install leaves only a .tmp file Open ignores and removes.
func InstallSnapshot(dir string, r io.Reader) error {
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = landSnapshot(dir, func(w io.Writer) error {
			_, err := io.Copy(w, r)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("storage: install snapshot: %w", err)
	}
	return nil
}
