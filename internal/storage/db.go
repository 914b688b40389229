package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"securitykg/internal/graph"
)

// DB is a durable graph store: an in-memory graph.Store whose every
// effective mutation is teed into a write-ahead log, plus snapshot
// checkpoints that bound recovery time and log growth. Layout of a data
// directory (one snapshot file exists at a time, named by codec):
//
//	snapshot.skg     binary snapshot: 8-byte magic, uvarint covering
//	                 seq, then the graph's binary codec stream
//	                 (the default)
//	snapshot.jsonl   JSON snapshot: one header line {magic, seq}, then
//	                 the graph's stable Save stream (same JSONL format
//	                 skg-query's -graph flag reads, after the header)
//	wal.log          length-prefixed CRC-checked mutation records
//	                 with seq > the snapshot's seq (plus, transiently,
//	                 already-checkpointed records recovery skips);
//	                 payload codec per codec.go, sniffed at recovery
//
// Recovery (Open) loads the snapshot (whichever of the two names
// exists; the higher covering seq wins if a crash left both), replays
// the WAL tail, discards a torn final record, and truncates the file to
// the valid prefix. The snapshot and its covering sequence number
// travel in one file renamed into place atomically, so there is no
// crash window in which they can disagree; WAL truncation after a
// checkpoint is pure space reclamation. A data directory written by the
// other codec is read as-is and converts at its next checkpoint.
type DB struct {
	dir   string
	store *graph.Store
	wal   *WAL
	tail  *replTail    // in-memory record tail for replication (tail.go)
	group groupTracker // where logMutation is among the transaction markers
	lock  *os.File     // exclusive flock on the data directory
	opts  Options

	mu         sync.Mutex // serializes checkpoints
	compacting atomic.Bool
	compactErr atomic.Value // error from a background compaction
	compactWG  sync.WaitGroup

	// Recovered reports what Open found: snapshot seq, WAL records
	// replayed, and whether a torn tail was discarded.
	Recovered RecoveryInfo
}

// RecoveryInfo summarizes what Open reconstructed.
type RecoveryInfo struct {
	SnapshotSeq uint64 // checkpoint the snapshot covered (0 = none)
	Replayed    int    // WAL records applied on top of it
	TornTail    bool   // a damaged final record was discarded
	TxDiscarded int    // records of uncommitted transactions discarded
}

// Options tune a DB.
type Options struct {
	// Sync is the WAL fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the group-commit interval for SyncInterval
	// (default 50ms).
	SyncEvery time.Duration
	// CompactBytes triggers a background checkpoint (snapshot + WAL
	// truncation) once the log exceeds this size. 0 means the 64 MiB
	// default; negative disables automatic compaction.
	CompactBytes int64
	// Codec selects the on-disk encoding for new WAL segments and
	// snapshots (default CodecBinary). Recovery always reads both.
	Codec Codec
	// TailRecords / TailBytes cap the in-memory replication tail
	// (tail.go): how far back a follower stream can be served without
	// rescanning the log file. Defaults: 8192 records, 8 MiB of wire bytes.
	TailRecords int
	TailBytes   int64
}

const (
	snapshotFile    = "snapshot.jsonl"
	snapshotBinFile = "snapshot.skg"
	walFile         = "wal.log"
	lockFile        = "LOCK"
	snapMagic       = "securitykg-wal-snapshot"
	// snapBinMagic opens a binary snapshot file; a uvarint covering seq
	// follows, then the graph binary stream (which has its own magic+CRC).
	snapBinMagic = "skgsnp2\n"
)

type snapHeader struct {
	Magic string `json:"magic"`
	Seq   uint64 `json:"seq"`
}

// Open recovers (or initializes) the data directory and returns a DB
// whose store logs every mutation from here on.
func Open(dir string, opts Options) (*DB, error) {
	if opts.CompactBytes == 0 {
		opts.CompactBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	// Exactly one process may own a data directory: two appenders would
	// interleave record bytes at the same offset and corrupt the log at
	// the first recovery. flock (not a pid file) so a crashed owner
	// releases automatically.
	lf, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: lock %s: %w", dir, err)
	}
	if err := lockDataDir(lf); err != nil {
		lf.Close()
		return nil, fmt.Errorf("storage: %s is in use by another process (%w)", dir, err)
	}
	// Crashed mid-checkpoint leftovers.
	os.Remove(filepath.Join(dir, snapshotFile+".tmp"))
	os.Remove(filepath.Join(dir, snapshotBinFile+".tmp"))

	owned := false
	defer func() {
		if !owned {
			lf.Close() // closing drops the flock
		}
	}()

	st, snapSeq, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, store: st, opts: opts, lock: lf}
	db.Recovered.SnapshotSeq = snapSeq

	walPath := filepath.Join(dir, walFile)
	lastSeq := snapSeq
	var validLen int64
	fileCodec := opts.Codec
	var dictSeed []string
	if f, err := os.Open(walPath); err == nil {
		// Recovering from scratch (no snapshot): a header-only pre-pass
		// counts the log's frames so the store's maps start at their
		// final size instead of rehashing their way up through a 20k+
		// insert sequence.
		if st.CountNodes() == 0 {
			if n := countWALFrames(f); n > 0 {
				st.Reserve(n, n)
			}
			if _, serr := f.Seek(0, io.SeekStart); serr != nil {
				f.Close()
				return nil, fmt.Errorf("storage: rewind wal: %w", serr)
			}
		}
		// Stream the valid prefix straight into the store: the scanner
		// decodes each record into one reused slot, the transaction fold
		// releases only committed groups, and ApplyStream folds the
		// result in bulk mode (per-mutation adjacency compaction and
		// stats checks deferred to a single sealing pass) — recovery
		// never materializes the record list, which together with the
		// bulk economics is most of the difference between replaying 20k
		// records and loading the same state from a snapshot.
		sc := newWALScanner(f)
		fold := newTxFold(sc)
		var rec Record
		applied, aerr := st.ApplyStream(func() (graph.Mutation, bool) {
			return fold.next(&rec, snapSeq)
		})
		fi, serr := f.Stat()
		f.Close()
		if serr != nil {
			return nil, fmt.Errorf("storage: stat wal: %w", serr)
		}
		if aerr != nil {
			return nil, fmt.Errorf("storage: replay seq %d: %w", rec.Seq, aerr)
		}
		db.Recovered.Replayed += applied
		db.Recovered.TxDiscarded = fold.discarded
		// A transaction left open by the end of the log (crash between a
		// commit's group-flush frames) is cut off exactly like a torn
		// record: the appender resumes from the committed watermark — the
		// scanner state at the last record boundary outside an open
		// group. The dictionary is append-only, so truncating the log to
		// that offset is matched by truncating the dict to its length at
		// that offset.
		valid, scSeq, dict := sc.res.valid, sc.lastSeq, sc.res.dict
		if fold.dangling() {
			valid, scSeq, dict = fold.validAt, fold.seqAt, dict[:fold.dictAt]
		}
		if scSeq > lastSeq {
			lastSeq = scSeq
		}
		validLen = valid
		fileCodec, dictSeed = sc.res.codec, dict
		if sc.res.torn || fi.Size() > valid {
			db.Recovered.TornTail = sc.res.torn || fold.dangling()
			if terr := os.Truncate(walPath, valid); terr != nil {
				return nil, fmt.Errorf("storage: truncate torn wal: %w", terr)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}

	wal, err := openWAL(walPath, validLen, lastSeq, fileCodec, dictSeed, opts.Codec, opts.Sync, opts.SyncEvery)
	if err != nil {
		return nil, err
	}
	db.wal = wal
	db.tail = newReplTail(lastSeq, opts.TailRecords, opts.TailBytes)
	st.SetMutationHook(db.logMutation)
	owned = true
	return db, nil
}

// lockDataDir takes an exclusive non-blocking flock on the lock file.
func lockDataDir(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

// loadSnapshot finds the data directory's snapshot — either codec's
// file name — and loads it (nil-safe on absence: a fresh store at
// seq 0). Normally exactly one of the two names exists; if a crash
// between a checkpoint's rename and its removal of the other name left
// both, the higher covering seq wins (at equal seqs the contents are
// identical — the seq names the exact log prefix folded in — and the
// binary file is picked arbitrarily).
func loadSnapshot(dir string) (*graph.Store, uint64, error) {
	jsonPath := filepath.Join(dir, snapshotFile)
	binPath := filepath.Join(dir, snapshotBinFile)
	jseq, jok, err := jsonSnapshotSeq(jsonPath)
	if err != nil {
		return nil, 0, err
	}
	bseq, bok, err := binSnapshotSeq(binPath)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case bok && (!jok || bseq >= jseq):
		return loadBinSnapshot(binPath)
	case jok:
		return loadJSONSnapshot(jsonPath)
	}
	return graph.New(), 0, nil
}

// jsonSnapshotSeq reads just the header of a JSON snapshot; ok is false
// when the file does not exist.
func jsonSnapshotSeq(path string) (uint64, bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	hdr, err := readJSONSnapHeader(bufio.NewReader(f), path)
	if err != nil {
		return 0, false, err
	}
	return hdr.Seq, true, nil
}

func readJSONSnapHeader(br *bufio.Reader, path string) (snapHeader, error) {
	var hdr snapHeader
	line, err := br.ReadBytes('\n')
	if err != nil {
		return hdr, fmt.Errorf("storage: snapshot header: %w", err)
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, fmt.Errorf("storage: snapshot header: %w", err)
	}
	if hdr.Magic != snapMagic {
		return hdr, fmt.Errorf("storage: %s is not a %s snapshot", path, snapMagic)
	}
	return hdr, nil
}

// binSnapshotSeq reads just the header of a binary snapshot.
func binSnapshotSeq(path string) (uint64, bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	seq, err := readBinSnapHeader(bufio.NewReader(f), path)
	if err != nil {
		return 0, false, err
	}
	return seq, true, nil
}

// writeBinSnapHeader frames a binary snapshot stream: the magic plus
// the uvarint covering seq. Checkpoint files and replication snapshot
// transfers (tail.go) share it, which is what lets a follower write
// the transfer verbatim as its snapshot.skg.
func writeBinSnapHeader(w io.Writer, seq uint64) error {
	hdr := make([]byte, 0, len(snapBinMagic)+binary.MaxVarintLen64)
	hdr = append(hdr, snapBinMagic...)
	hdr = binary.AppendUvarint(hdr, seq)
	_, err := w.Write(hdr)
	return err
}

func readBinSnapHeader(br *bufio.Reader, path string) (uint64, error) {
	magic := make([]byte, len(snapBinMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapBinMagic {
		return 0, fmt.Errorf("storage: %s is not a binary snapshot", path)
	}
	seq, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("storage: snapshot header: %w", err)
	}
	return seq, nil
}

func loadJSONSnapshot(path string) (*graph.Store, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr, err := readJSONSnapHeader(br, path)
	if err != nil {
		return nil, 0, err
	}
	st, err := graph.Load(br)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: load snapshot: %w", err)
	}
	return st, hdr.Seq, nil
}

func loadBinSnapshot(path string) (*graph.Store, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	seq, err := readBinSnapHeader(br, path)
	if err != nil {
		return nil, 0, err
	}
	st, err := graph.Load(br)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: load snapshot: %w", err)
	}
	return st, seq, nil
}

// logMutation is the store's mutation hook: it runs under the store's
// writer lock, so records land in the WAL in exactly mutation order. An
// append failure is sticky on the WAL (Err surfaces it) and the store runs
// ahead of the log until a checkpoint — which a failed append schedules at
// once — snapshots the full store and re-bases durability past the gap,
// clearing the error. The tracker sees every mutation, logged or not, so
// a group a failure cut short still ends at its marker.
func (db *DB) logMutation(m graph.Mutation) {
	boundary := db.group.boundary(m.Op)
	seq, err := db.wal.Append(m, boundary)
	if err != nil {
		db.tail.cut(db.wal.LastSeq() + 1)
		db.scheduleCheckpoint()
		return // sticky until the checkpoint lands; Err() reports it
	}
	db.tail.add(seq, m, boundary)
	if db.opts.CompactBytes > 0 && db.wal.Size() > db.opts.CompactBytes {
		db.scheduleCheckpoint()
	}
}

// scheduleCheckpoint runs Checkpoint on its own goroutine (the mutation
// hook holds the store's writer lock and Checkpoint quiesces writers),
// collapsing concurrent requests into one.
func (db *DB) scheduleCheckpoint() {
	if db.compacting.CompareAndSwap(false, true) {
		db.compactWG.Add(1)
		go func() {
			defer db.compactWG.Done()
			err := db.Checkpoint()
			db.compactErr.Store(errBox{err})
			db.compacting.Store(false)
			// A mutation whose append failed while this checkpoint was in
			// flight is covered by neither the snapshot nor the log (its
			// retry request lost the CAS race against us). If the
			// checkpoint itself worked, run another one to cover it; if
			// the checkpoint failed there is nothing to gain by spinning —
			// the next mutation re-triggers.
			if err == nil && db.wal.Err() != nil {
				db.scheduleCheckpoint()
			}
		}()
	}
}

// Store returns the underlying graph store. Every mutation applied to
// it — directly, through Cypher write clauses, or through the ingestion
// pipeline — is logged.
func (db *DB) Store() *graph.Store { return db.store }

// Checkpoint snapshots the store (with the covering WAL sequence number
// in the snapshot's header, captured under the same lock as the state)
// to a temp file, atomically renames it into place, removes the other
// codec's snapshot file if one was left over, and truncates the WAL if
// nothing was appended meanwhile. This is where a data directory
// converts to the configured codec: the snapshot is written fresh in it
// and the truncated WAL restarts in it.
func (db *DB) Checkpoint() error {
	began := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	name, other := snapshotBinFile, snapshotFile
	if db.opts.Codec == CodecJSON {
		name, other = snapshotFile, snapshotBinFile
	}
	tmp := filepath.Join(db.dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	var seq, fails uint64
	// Quiesce excludes writers (including an open transaction, which
	// holds the writer lock from its first write to commit/rollback) for
	// the duration of the snapshot: the store state and covering seq are
	// captured at a transaction boundary, never mid-group, so a
	// checkpoint can never persist half a transaction whose WAL group is
	// then truncated away.
	err = db.store.Quiesce(func() error {
		if db.opts.Codec == CodecJSON {
			return db.store.SaveWithHeader(f, func(w io.Writer) error {
				seq, fails = db.wal.state()
				return json.NewEncoder(w).Encode(snapHeader{Magic: snapMagic, Seq: seq})
			})
		}
		return db.store.SaveBinaryWithHeader(f, func(w io.Writer) error {
			seq, fails = db.wal.state()
			return writeBinSnapHeader(w, seq)
		})
	})
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: checkpoint rename: %w", err)
	}
	// The freshly-renamed snapshot covers at least as much as whatever
	// the other codec's file held, so it is safe to drop (a crash right
	// before this line leaves both; recovery picks the higher seq).
	os.Remove(filepath.Join(db.dir, other))
	syncDir(db.dir)
	// Truncation (and the sticky-error re-base it performs) is best
	// effort: the snapshot has already landed, which is what Checkpoint
	// promises. If an append failed after the snapshot captured its
	// (seq, fails) pair, truncateThrough keeps the sticky error — that
	// mutation is covered by neither file — and Err() stays loud until
	// the next covering checkpoint (scheduled by our caller or by the
	// next mutation).
	db.wal.truncateThrough(seq, fails)
	// A landed checkpoint supersedes any earlier background-compaction
	// failure.
	db.compactErr.Store(errBox{nil})
	mCheckpoints.Inc()
	mCheckpointSeconds.Observe(time.Since(began).Seconds())
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss; best
// effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Sync forces the WAL to disk (exposed so callers can group-commit
// around a batch regardless of policy).
func (db *DB) Sync() error { return db.wal.Sync() }

// LastSeq returns the last logged sequence number.
func (db *DB) LastSeq() uint64 { return db.wal.LastSeq() }

// WALSize returns the current log size in bytes.
func (db *DB) WALSize() int64 { return db.wal.Size() }

// errBox wraps an error (possibly nil) for atomic.Value, which cannot
// hold a nil interface directly.
type errBox struct{ err error }

// Err returns the current durability failure, if any: a sticky WAL
// append/flush error (cleared once a covering checkpoint re-bases the
// log) or the most recent background compaction error. Long-running
// callers should surface it — writes keep succeeding in memory while
// it is non-nil, but they are not durable.
func (db *DB) Err() error {
	if err := db.wal.Err(); err != nil {
		return err
	}
	if v := db.compactErr.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

// Close detaches the store's hook, waits for any in-flight compaction,
// and flushes + fsyncs + closes the WAL. The store remains usable (but
// no longer durable) afterwards. Callers wanting a fresh snapshot on
// shutdown run Checkpoint first.
func (db *DB) Close() error {
	db.store.SetMutationHook(nil)
	db.compactWG.Wait()
	err := db.wal.Close()
	db.lock.Close() // drops the flock; the directory is free to reopen
	return err
}
