// Package storage is the durability subsystem underneath the in-memory
// graph store: an append-only write-ahead log of logical mutations, a
// snapshot file that wraps the graph's binary SaveBinary stream, and
// recovery that turns a data directory back into the exact store that
// was running before a crash. It writes one format; the JSON records and
// JSONL snapshots of earlier builds are read once, when Open finds them,
// and rewritten before Open returns (db.go).
//
// The design follows the log-structured discipline of datom-log stores
// (janus-datalog's replayable assert/retract sequence): the source of
// truth is the ordered mutation log, the in-memory store is a cache of
// its fold, and a snapshot is just a checkpoint that lets recovery skip
// a log prefix. Because every graph.Store operation is deterministic
// given prior state, replaying the surviving log prefix reproduces the
// pre-crash store byte-for-byte — torn final records are expected
// (a crash mid-append) and discarded.
package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"sync"
	"time"

	"securitykg/internal/graph"
)

// Record is one WAL entry: a logical store mutation plus its log
// sequence number. Seq is assigned at append time and is strictly
// increasing within one data directory; snapshots record the Seq they
// cover, so recovery applies only records past the checkpoint. The JSON
// tags are the payload of a JSON-era log, which the scanner still reads.
type Record struct {
	Seq   uint64            `json:"seq"`
	Op    graph.MutationOp  `json:"op"`
	Type  string            `json:"type,omitempty"`
	Name  string            `json:"name,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
	From  graph.NodeID      `json:"from,omitempty"`
	To    graph.NodeID      `json:"to,omitempty"`
	Node  graph.NodeID      `json:"node,omitempty"`
	Edge  graph.EdgeID      `json:"edge,omitempty"`
	Key   string            `json:"key,omitempty"`
	Val   string            `json:"val,omitempty"`
}

// recordFromMutation wraps a graph mutation as a WAL record (Seq filled
// in by the appender).
func recordFromMutation(m graph.Mutation) Record {
	return Record{
		Op: m.Op, Type: m.Type, Name: m.Name, Attrs: m.Attrs,
		From: m.From, To: m.To, Node: m.Node, Edge: m.Edge,
		Key: m.Key, Val: m.Val,
	}
}

// Mutation converts the record back to the graph-layer mutation it logs.
func (r Record) Mutation() graph.Mutation {
	return graph.Mutation{
		Op: r.Op, Type: r.Type, Name: r.Name, Attrs: r.Attrs,
		From: r.From, To: r.To, Node: r.Node, Edge: r.Edge,
		Key: r.Key, Val: r.Val,
	}
}

// On-disk framing: each record is
//
//	uint32  payload length (little-endian)
//	uint32  CRC-32 (IEEE) of the payload
//	[]byte  payload (the encoded Record; see codec.go)
//
// The file opens with the 8-byte walMagic header; a JSON-era log starts
// directly at its first frame, JSON payloads in the same framing, which
// is how the scanner knows one. The length comes first so a reader can
// skip to the checksum decision without parsing the payload; the CRC
// covers only the payload, so a torn header, a torn payload, and a
// bit-flipped payload are all detected the same way: the record (and
// everything after it) is discarded.

const (
	recordHeaderLen = 8
	// maxRecordLen bounds a single record so a corrupt length prefix
	// cannot ask the reader to allocate gigabytes. Mutations are small
	// (a node's attrs at most); 16 MiB is orders of magnitude of slack.
	maxRecordLen = 16 << 20
)

// SyncPolicy selects when the WAL calls fsync.
type SyncPolicy int

const (
	// SyncInterval groups commits: appends return after the buffered
	// write, and a background ticker fsyncs every Options.SyncEvery.
	// One fsync covers every append since the last — the group-commit
	// default. A crash can lose at most the last interval's writes.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before every acknowledgement, once per bare record
	// or transaction group: nothing acknowledged is ever lost.
	SyncAlways
	// SyncNever never fsyncs explicitly; the OS flushes on its own
	// schedule. Fastest, loses the page cache on power failure, still
	// safe against process crashes (the kernel has the writes).
	SyncNever
)

// ParseSyncPolicy maps the --fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return "interval"
}

// WAL is the append-only mutation log. Appends are serialized by an
// internal mutex; in practice they already arrive serialized, because
// the store invokes its mutation hook under its write lock.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	size    int64
	lastSeq uint64
	policy  SyncPolicy
	dirty   bool   // buffered-or-unsynced bytes since the last fsync
	err     error  // sticky: first append/flush failure poisons the log
	fails   uint64 // appends that failed (these never advance lastSeq)

	dict   *walDict              // encode-side in-band dictionary, in step with the file
	encBuf []byte                // reusable payload scratch
	keyBuf []string              // reusable attr-key sort scratch
	hdrBuf [recordHeaderLen]byte // framing scratch; a local escapes via the Write call

	closed   bool
	stopSync chan struct{} // stops the interval-sync goroutine
	syncDone chan struct{}
}

// openWAL opens (creating if needed) the log file for appending at
// offset size, with lastSeq and the dictionary seeded from recovery's
// scan. An empty file starts with the magic and an empty dictionary.
func openWAL(path string, size int64, lastSeq uint64, dictSeed []string, policy SyncPolicy, every time.Duration) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seek wal: %w", err)
	}
	w := &WAL{
		f: f, w: bufio.NewWriterSize(f, 1<<16),
		size: size, lastSeq: lastSeq, policy: policy,
	}
	if size == 0 {
		if err := w.beginFileLocked(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		w.dict = newWALDict(dictSeed)
	}
	if policy == SyncInterval {
		if every <= 0 {
			every = 50 * time.Millisecond
		}
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop(every)
	}
	return w, nil
}

// beginFileLocked initializes an empty log file: the magic header
// (buffered; it reaches disk with the first flush) and a fresh dictionary.
func (w *WAL) beginFileLocked() error {
	if _, err := w.w.WriteString(walMagic); err != nil {
		return fmt.Errorf("storage: write wal header: %w", err)
	}
	w.size = int64(len(walMagic))
	w.dirty = true
	w.dict = newWALDict(nil)
	return nil
}

func (w *WAL) syncLoop(every time.Duration) {
	defer close(w.syncDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && w.err == nil && !w.closed {
				if err := w.flushLocked(true); err != nil {
					w.err = err
				}
			}
			w.mu.Unlock()
		}
	}
}

// Append encodes the mutation as the next record and buffers it,
// returning the sequence number it was assigned. At a boundary — a bare
// record or the marker closing a group; the caller follows the markers,
// so no group state here can outlive a failed append — the buffer drains
// to the OS before Append returns (a process crash never loses an
// acknowledged commit) and is fsynced under SyncAlways. Inside a group
// records only buffer: one write, one fsync per group, and recovery
// discards a group cut short on disk. Errors are sticky: once an append
// fails, the WAL refuses further writes and Err/Close report the failure.
func (w *WAL) Append(m graph.Mutation, boundary bool) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.fails++
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("storage: append to closed WAL")
	}
	rec := recordFromMutation(m)
	rec.Seq = w.lastSeq + 1
	// Encoding into the reusable scratch keeps the append hot path
	// allocation-free. The dictionary mutates as we encode; if any later
	// step fails the error is sticky, so no bytes diverging from the
	// dictionary state can ever reach the file.
	w.encBuf, w.keyBuf = encodeRecordBinary(w.encBuf[:0], rec, w.dict, w.keyBuf)
	payload := w.encBuf
	if len(payload) > maxRecordLen {
		// Never frame a record the reader is obliged to reject: an
		// oversize record would be acknowledged now and then discarded —
		// along with every record after it — at recovery. Refuse it
		// (sticky), leaving the store ahead of the log until a
		// checkpoint re-bases durability.
		return 0, w.failLocked(fmt.Errorf("storage: mutation record is %d bytes, past the %d-byte limit", len(payload), maxRecordLen))
	}
	hdr := w.hdrBuf[:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	w.dirty = true
	if _, err := w.w.Write(hdr); err != nil {
		return 0, w.failLocked(fmt.Errorf("storage: append: %w", err))
	}
	if _, err := w.w.Write(payload); err != nil {
		return 0, w.failLocked(fmt.Errorf("storage: append: %w", err))
	}
	if boundary {
		if err := w.flushLocked(w.policy == SyncAlways); err != nil {
			return 0, w.failLocked(err)
		}
	}
	w.lastSeq = rec.Seq
	w.size += int64(recordHeaderLen + len(payload))
	mWALAppends.Inc()
	mWALBytes.Add(int64(recordHeaderLen + len(payload)))
	return rec.Seq, nil
}

// failLocked makes err sticky and counts the failed append.
func (w *WAL) failLocked(err error) error {
	w.err = err
	w.fails++
	return err
}

// flushLocked drains the buffer to the OS and optionally fsyncs.
func (w *WAL) flushLocked(sync bool) error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush wal: %w", err)
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("storage: fsync wal: %w", err)
		}
		mWALFsyncs.Inc()
		w.dirty = false
	} else {
		w.dirty = true
	}
	return nil
}

// Sync forces an fsync regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if err := w.flushLocked(true); err != nil {
		w.err = err
	}
	return w.err
}

// LastSeq returns the sequence number of the last appended record.
func (w *WAL) LastSeq() uint64 {
	seq, _ := w.state()
	return seq
}

// state returns (lastSeq, fails) atomically: the checkpoint captures
// both under the store's read lock so it can later tell whether an
// append failed after the snapshot was taken.
func (w *WAL) state() (uint64, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq, w.fails
}

// Size returns the current log size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Err returns the sticky append/flush error, if any. The in-memory
// store stays ahead of a poisoned log; the next successful checkpoint
// (which snapshots the full store) re-bases durability past the gap.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// truncateThrough discards the log if (and only if) everything in it is
// covered by a snapshot at seq: called after a checkpoint. If an append
// slipped in after the snapshot captured seq, the log keeps its tail —
// the next checkpoint reclaims it. Recovery is indifferent either way
// (records ≤ the snapshot seq are skipped), so a crash anywhere around
// truncation is safe; this is space reclamation, not correctness.
//
// A sticky append error does not block truncation: failed appends never
// advanced lastSeq, so a snapshot at lastSeq covers the full store —
// including the mutations the log missed — and truncating behind it
// re-bases durability past the gap, clearing the sticky error so
// appends can resume. fails is the failure count captured with the
// snapshot: if another append failed AFTER the snapshot was taken,
// that mutation is in neither the snapshot nor the log, so the sticky
// error must survive this truncation (the caller schedules another
// covering checkpoint).
func (w *WAL) truncateThrough(seq, fails uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.lastSeq != seq || (w.size <= int64(len(walMagic)) && w.err == nil) {
		return w.err
	}
	if w.fails != fails {
		// A mutation slipped into the store (and past the snapshot)
		// without reaching the log; this snapshot does not cover it.
		return w.err
	}
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = err
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		w.err = fmt.Errorf("storage: truncate wal: %w", err)
		return w.err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.err = fmt.Errorf("storage: rewind wal: %w", err)
		return w.err
	}
	w.w.Reset(w.f)
	w.size = 0
	w.dirty = true // the truncation itself should reach disk eventually
	w.err = nil    // the snapshot covers everything the log missed
	// The dictionary resets with the file, keeping encoder state in
	// lockstep with the bytes on disk.
	if err := w.beginFileLocked(); err != nil {
		w.err = err
	}
	return w.err
}

// Close flushes, fsyncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.err
	}
	w.closed = true
	var err error
	if w.err == nil {
		err = w.flushLocked(true)
	}
	cerr := w.f.Close()
	if err == nil {
		err = cerr
	}
	if w.err == nil {
		w.err = err
	}
	stop := w.stopSync
	done := w.syncDone
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// replayResult is what scanning a WAL file yields: the byte offset
// where the valid prefix ends, whether a torn/corrupt tail was discarded
// after it, whether the file is a JSON-era log (no magic: nothing appends
// to one — Open rewrites the directory), and the in-band dictionary
// accumulated over the valid prefix — with valid, exactly the state an
// appender must resume with.
type replayResult struct {
	valid   int64
	torn    bool
	jsonLog bool
	dict    []string
}

// walScanner walks a log's valid record prefix one record at a time,
// sniffing the payload format from the file's first bytes (walMagic →
// this build's; anything else, including a JSON-era log's first length
// prefix → JSON payloads).
// Damage — a short header, a length past the size bound, a CRC
// mismatch, a short payload, an undecodable payload, or a sequence
// number that does not increase — ends the scan: nothing after a bad
// record can be trusted, because record boundaries are only known by
// walking the length prefixes. This is exactly the torn-final-record
// tolerance a crash mid-append requires, generalized to arbitrary
// corruption. A JSON log can never sniff as binary: its first four
// bytes are a record length, and the length walMagic's bytes spell is
// far past maxRecordLen.
//
// Streaming (next into a caller-reused Record) rather than returning
// the record list keeps recovery of a long tail from materializing
// every record: the caller folds each one into the store and the
// scanner's two scratch buffers are the only per-record state.
type walScanner struct {
	br      *bufio.Reader
	res     replayResult
	lastSeq uint64
	hdr     [recordHeaderLen]byte
	payload []byte
	// attrs is the binary decoder's attribute map, reused across records:
	// a consumer keeping one past the next call copies it.
	attrs map[string]string
}

func newWALScanner(r io.Reader) *walScanner {
	sc := &walScanner{br: bufio.NewReaderSize(r, 1<<16), res: replayResult{jsonLog: true}, attrs: make(map[string]string, 8)}
	if head, err := sc.br.Peek(len(walMagic)); err == nil && string(head) == walMagic {
		sc.br.Discard(len(walMagic))
		sc.res.jsonLog = false
		sc.res.valid = int64(len(walMagic))
	}
	return sc
}

// next decodes the next valid record into *rec, returning false at the
// end of the valid prefix (EOF or first damage; res.torn tells which).
// Payload scratch reuse is safe because both decoders copy every
// string they keep (string conversions; the dictionary appends the
// copies) — nothing aliases the buffer across calls.
func (sc *walScanner) next(rec *Record) bool {
	if sc.res.torn {
		return false
	}
	if _, err := io.ReadFull(sc.br, sc.hdr[:]); err != nil {
		sc.res.torn = !errors.Is(err, io.EOF)
		return false
	}
	n := binary.LittleEndian.Uint32(sc.hdr[0:4])
	want := binary.LittleEndian.Uint32(sc.hdr[4:8])
	if n == 0 || n > maxRecordLen {
		sc.res.torn = true
		return false
	}
	if cap(sc.payload) < int(n) {
		sc.payload = make([]byte, n)
	}
	sc.payload = sc.payload[:n]
	if _, err := io.ReadFull(sc.br, sc.payload); err != nil {
		sc.res.torn = true
		return false
	}
	if crc32.ChecksumIEEE(sc.payload) != want {
		sc.res.torn = true
		return false
	}
	if sc.res.jsonLog {
		*rec = Record{}
		if err := json.Unmarshal(sc.payload, rec); err != nil {
			sc.res.torn = true
			return false
		}
	} else if derr := decodeRecordBinaryInto(sc.payload, &sc.res.dict, rec, sc.attrs); derr != nil {
		sc.res.torn = true
		return false
	}
	if rec.Seq <= sc.lastSeq {
		sc.res.torn = true
		return false
	}
	sc.lastSeq = rec.Seq
	sc.res.valid += int64(recordHeaderLen) + int64(n)
	return true
}

// countWALFrames walks the record framing (headers only — no CRC, no
// decode) and returns an upper bound on how many records the file
// holds. Recovery uses it to pre-size the store's maps before a long
// replay; garbage past a torn tail can only inflate the count, which
// Reserve tolerates (it is a sizing hint, bounded by file size).
func countWALFrames(r io.Reader) int {
	br := bufio.NewReaderSize(r, 1<<16)
	if head, err := br.Peek(len(walMagic)); err == nil && string(head) == walMagic {
		br.Discard(len(walMagic))
	}
	count := 0
	var hdr [recordHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return count
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecordLen {
			return count
		}
		if _, err := br.Discard(int(n)); err != nil {
			return count
		}
		count++
	}
}

// txFold layers transaction semantics over a walScanner: mutations
// between a tx_begin and its tx_commit are buffered and released to the
// consumer only once the commit record is scanned; a tx_rollback, a
// tx_begin inside an open group (can only come from a foreign or
// corrupted log), or end-of-log with the group still open discards the
// buffered records. The fold also tracks the committed watermark — the
// scanner state at the last record boundary outside an open
// transaction — so recovery can truncate a dangling group off the log
// tail exactly like a torn record: validAt/seqAt/dictAt are what the
// appender must resume from when the log is cut there.
type txFold struct {
	sc        *walScanner
	inTx      bool
	pending   []graph.Mutation
	drain     int // next pending index to hand out; -1 when not draining
	discarded int // records of open/rolled-back groups that were dropped

	validAt int64  // committed watermark: byte offset
	seqAt   uint64 // committed watermark: last sequence number
	dictAt  int    // committed watermark: dictionary length
}

func newTxFold(sc *walScanner) *txFold {
	tf := &txFold{sc: sc, drain: -1}
	tf.mark()
	return tf
}

// mark advances the committed watermark to the scanner's current state.
func (tf *txFold) mark() {
	tf.validAt = tf.sc.res.valid
	tf.seqAt = tf.sc.lastSeq
	tf.dictAt = len(tf.sc.res.dict)
}

// dangling reports whether the log ended inside an open transaction —
// the caller should truncate to the committed watermark.
func (tf *txFold) dangling() bool { return tf.inTx }

// next yields the next mutation to replay, skipping records with
// seq <= afterSeq (already covered by a snapshot). rec is the caller's
// scratch record slot (shared with the scanner).
func (tf *txFold) next(rec *Record, afterSeq uint64) (graph.Mutation, bool) {
	for {
		if tf.drain >= 0 {
			if tf.drain < len(tf.pending) {
				m := tf.pending[tf.drain]
				tf.drain++
				return m, true
			}
			tf.drain = -1
			tf.pending = tf.pending[:0]
		}
		if !tf.sc.next(rec) {
			if tf.inTx {
				tf.discarded += len(tf.pending) + 1 // +1 for the tx_begin
				tf.pending = tf.pending[:0]
			}
			return graph.Mutation{}, false
		}
		switch rec.Op {
		case graph.OpTxBegin:
			if tf.inTx {
				tf.discarded += len(tf.pending) + 1
				tf.pending = tf.pending[:0]
			}
			tf.inTx = true
		case graph.OpTxCommit:
			if tf.inTx {
				tf.inTx = false
				tf.mark()
				tf.drain = 0 // release the group (possibly empty)
			} else {
				tf.mark() // stray commit outside a group: ignore
			}
		case graph.OpTxRollback:
			if tf.inTx {
				tf.discarded += len(tf.pending) + 2 // begin + rollback
				tf.pending = tf.pending[:0]
				tf.inTx = false
			}
			tf.mark()
		default:
			if tf.inTx {
				if rec.Seq > afterSeq {
					// The scanner may reuse the record's attr map for the
					// next decode; buffered mutations need their own copy.
					m := rec.Mutation()
					m.Attrs = maps.Clone(m.Attrs)
					tf.pending = append(tf.pending, m)
				}
				continue
			}
			tf.mark()
			if rec.Seq > afterSeq {
				return rec.Mutation(), true
			}
		}
	}
}

// ReplayReader applies every valid record in r with seq > afterSeq to
// the store — transactional groups atomically: only committed groups
// replay, and a group left open by the end of the log is discarded like
// a torn record. Returns how many mutations were applied and whether a
// damaged or dangling tail was discarded. Exposed for fuzzing and
// tests; Open wires the same fold into directory recovery.
func ReplayReader(r io.Reader, st *graph.Store, afterSeq uint64) (applied int, torn bool, err error) {
	sc := newWALScanner(r)
	fold := newTxFold(sc)
	var rec Record
	applied, aerr := st.ApplyStream(func() (graph.Mutation, bool) {
		return fold.next(&rec, afterSeq)
	})
	if aerr != nil {
		return applied, sc.res.torn, fmt.Errorf("storage: replay seq %d: %w", rec.Seq, aerr)
	}
	return applied, sc.res.torn || fold.dangling(), nil
}
