// Package storage is the durability subsystem underneath the in-memory
// graph store: an append-only write-ahead log of logical mutations, a
// snapshot file that wraps the graph's binary SaveBinary stream, and
// recovery that turns a data directory back into the exact store that
// was running before a crash. It reads and writes one format; Open
// refuses a directory an earlier build wrote in another (db.go).
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
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"securitykg/internal/graph"
)

// Record is one WAL entry: a logical store mutation plus its log
// sequence number. Seq is assigned at append time and is strictly
// increasing within one data directory; snapshots record the Seq they
// cover, so recovery applies only records past the checkpoint.
type Record struct {
	Seq   uint64
	Op    graph.MutationOp
	Type  string
	Name  string
	Attrs map[string]string
	From  graph.NodeID
	To    graph.NodeID
	Node  graph.NodeID
	Edge  graph.EdgeID
	Key   string
	Val   string
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
// The file opens with the 8-byte walMagic header (logHeaderProblem says
// what recovery accepts instead). The length comes first so a reader can
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

// syncEvery is SyncInterval's group-commit interval.
const syncEvery = 50 * time.Millisecond

// SyncPolicy selects when the WAL calls fsync.
type SyncPolicy int

const (
	// SyncInterval groups commits: appends return after the buffered
	// write, and a background ticker fsyncs every syncEvery.
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

	encBuf []byte                // the last record's payload; reused
	keyBuf []string              // reusable attr-key sort scratch
	hdrBuf [recordHeaderLen]byte // framing scratch; a local escapes via the Write call

	closed   bool
	stopSync chan struct{} // stops the interval-sync goroutine
	syncDone chan struct{}
}

// openWAL opens (creating if needed) the log file for appending at
// offset size, with lastSeq from recovery's scan. An empty file starts
// with the magic.
func openWAL(path string, size int64, lastSeq uint64, policy SyncPolicy) (*WAL, error) {
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
	}
	if policy == SyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// beginFileLocked initializes an empty log file with the magic header
// (buffered; it reaches disk with the first flush).
func (w *WAL) beginFileLocked() error {
	if _, err := w.w.WriteString(walMagic); err != nil {
		return fmt.Errorf("storage: write wal header: %w", err)
	}
	w.size = int64(len(walMagic))
	w.dirty = true
	return nil
}

func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(syncEvery)
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
// returning the sequence number it was assigned and the record's payload
// — valid until the next Append, and what the replication tail copies.
// At a boundary — a bare record or the marker closing a group; the
// caller follows the markers, so no group state here can outlive a
// failed append — the buffer drains
// to the OS before Append returns (a process crash never loses an
// acknowledged commit) and is fsynced under SyncAlways. Inside a group
// records only buffer: one write, one fsync per group, and recovery
// discards a group cut short on disk. Errors are sticky: once an append
// fails, the WAL refuses further writes and Err/Close report the failure.
func (w *WAL) Append(m graph.Mutation, boundary bool) (uint64, []byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.fails++
		return 0, nil, w.err
	}
	if w.closed {
		return 0, nil, errors.New("storage: append to closed WAL")
	}
	seq := w.lastSeq + 1
	// Encoding into the reusable scratch keeps the append hot path
	// allocation-free.
	w.encBuf, w.keyBuf = encodeRecord(w.encBuf[:0], seq, m, w.keyBuf)
	payload := w.encBuf
	if len(payload) > maxRecordLen {
		// Never frame a record the reader is obliged to reject: an
		// oversize record would be acknowledged now and then discarded —
		// along with every record after it — at recovery. Refuse it
		// (sticky), leaving the store ahead of the log until a
		// checkpoint re-bases durability.
		return 0, nil, w.failLocked(fmt.Errorf("storage: mutation record is %d bytes, past the %d-byte limit", len(payload), maxRecordLen))
	}
	hdr := w.hdrBuf[:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	w.dirty = true
	if _, err := w.w.Write(hdr); err != nil {
		return 0, nil, w.failLocked(fmt.Errorf("storage: append: %w", err))
	}
	if _, err := w.w.Write(payload); err != nil {
		return 0, nil, w.failLocked(fmt.Errorf("storage: append: %w", err))
	}
	if boundary {
		if err := w.flushLocked(w.policy == SyncAlways); err != nil {
			return 0, nil, w.failLocked(err)
		}
	}
	w.lastSeq = seq
	w.size += int64(recordHeaderLen + len(payload))
	mWALAppends.Inc()
	mWALBytes.Add(int64(recordHeaderLen + len(payload)))
	return seq, payload, nil
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

// logHeaderProblem says what is wrong with a log file that begins with
// head — its first len(walMagic) bytes, or all of a shorter file — or ""
// when nothing is: head is walMagic, or a proper prefix of it, which is
// all a crash while the file was created leaves (an empty log). Anything
// else is not a log this build reads: an earlier build's, or damage.
func logHeaderProblem(head []byte) string {
	switch {
	case strings.HasPrefix(walMagic, string(head)):
		return ""
	case string(head) == "skgwal2\n":
		return "a skgwal2 log, whose records refer to an in-band dictionary"
	}
	return "a log with an unrecognised or damaged header (a JSON-era log has none)"
}

// walScanner walks a log's valid record prefix one record at a time,
// handing out each record's payload: the file's own bytes, checked only
// for framing, CRC, seq and opcode. Damage — a header logHeaderProblem
// refuses, a short frame header, a length past the size bound, a CRC
// mismatch, a short payload, a payload that does not yield a seq and an
// opcode, or a seq that is not its predecessor's successor — ends the
// scan: nothing after a bad record can be trusted, because record
// boundaries are only known by walking the length prefixes. This is
// exactly the torn-final-record tolerance a crash mid-append requires,
// generalized to arbitrary corruption.
type walScanner struct {
	br      *bufio.Reader
	valid   int64  // where the last valid record ends
	torn    bool   // the scan ended at damage, not at the end of the file
	lastSeq uint64 // the current record's seq
	cur     []byte // the current record's payload, valid until the next call
	hdr     [recordHeaderLen]byte
	payload []byte
}

func newWALScanner(r io.Reader) *walScanner {
	sc := &walScanner{br: bufio.NewReaderSize(r, 1<<16)}
	head, _ := sc.br.Peek(len(walMagic))
	switch {
	case string(head) == walMagic:
		sc.br.Discard(len(walMagic))
		sc.valid = int64(len(walMagic))
	case logHeaderProblem(head) != "":
		sc.torn = true
	}
	return sc
}

// next reads the next valid record into cur and lastSeq, returning false
// at the end of the valid prefix (EOF or first damage; torn tells which).
func (sc *walScanner) next() bool {
	if sc.torn {
		return false
	}
	if _, err := io.ReadFull(sc.br, sc.hdr[:]); err != nil {
		sc.torn = !errors.Is(err, io.EOF)
		return false
	}
	n := binary.LittleEndian.Uint32(sc.hdr[0:4])
	want := binary.LittleEndian.Uint32(sc.hdr[4:8])
	if n == 0 || n > maxRecordLen {
		sc.torn = true
		return false
	}
	if cap(sc.payload) < int(n) {
		sc.payload = make([]byte, n)
	}
	sc.payload = sc.payload[:n]
	if _, err := io.ReadFull(sc.br, sc.payload); err != nil || crc32.ChecksumIEEE(sc.payload) != want {
		sc.torn = true
		return false
	}
	seq, _, known := peekRecord(sc.payload)
	if !known || seq == 0 || sc.lastSeq != 0 && seq != sc.lastSeq+1 {
		sc.torn = true
		return false
	}
	sc.cur, sc.lastSeq = sc.payload, seq
	sc.valid += int64(recordHeaderLen) + int64(n)
	return true
}

// countWALFrames walks the record framing (headers only — no CRC, no
// decode) and returns an upper bound on how many records the file
// holds. Recovery uses it to pre-size the store's maps before a long
// replay; garbage past a torn tail can only inflate the count, which
// Reserve tolerates (it is a sizing hint, bounded by file size).
func countWALFrames(r io.Reader) int {
	br := bufio.NewReaderSize(r, 1<<16)
	br.Discard(len(walMagic)) // Open has refused any other header
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

// replayResult is what folding a log into a store found.
type replayResult struct {
	applied   int    // mutations applied
	discarded int    // records of groups that never committed
	valid     int64  // where the last whole unit ends: the appender resumes here
	lastSeq   uint64 // that unit's last seq
	torn      bool   // damage, or a group the log ends inside, follows valid
}

// replayLog folds the valid prefix of the log in r into st, skipping
// records at or below after (a snapshot holds them). The units are a
// follower's, cut and applied by the same two functions (NextUnit,
// UnitApplier): a bare record applies as it comes; a group's records
// wait as bytes and are decoded once, as they apply, at its tx_commit. A
// tx_rollback, or a second tx_begin inside an open group (only a foreign
// or corrupted log has either), discards the group, and so does the end
// of the log: a group left open is cut off like a torn record, and valid
// and lastSeq name the last unit boundary outside a group, where the
// appender must resume. The fold is one load bracket: adjacency
// compaction waits for a single seal.
func replayLog(r io.Reader, st *graph.Store, after uint64) (res replayResult, err error) {
	sc := newWALScanner(r)
	res.valid = sc.valid
	st.BeginBulk()
	defer st.EndBulk()
	var (
		apply   UnitApplier
		pending []byte // the open group's records, then the record at hand
		held    int    // the open group's records in pending
	)
	for sc.next() {
		head := len(pending)
		pending = appendWire(pending, sc.cur)
		// The scanner has checked the record's seq and opcode, so cutting
		// it cannot fail.
		_, rest, end, _ := NextUnit(pending[head:], held > 0)
		switch end {
		case UnitOpen:
			held++
			continue
		case UnitAborted:
			if len(rest) > 0 { // a tx_begin: the record opens the next group
				res.discarded += held
				pending, held = append(pending[:0], rest...), 1
				continue
			}
			res.discarded += held + 1
		default: // the scanner's seqs run without gaps, so pending starts at lastSeq-held
			var n int
			if _, n, err = apply.Apply(st, pending, sc.lastSeq-uint64(held)-1, after); err != nil {
				return res, err
			}
			res.applied += n
		}
		pending, held = pending[:0], 0
		res.valid, res.lastSeq = sc.valid, sc.lastSeq
	}
	res.discarded += held
	res.torn = sc.torn || held > 0
	return res, nil
}
