package storage

import (
	"bufio"
	"encoding/binary"
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
// directory:
//
//	snapshot.skg     8-byte magic, uvarint covering seq, then the
//	                 graph's SaveBinary stream
//	wal.log          8-byte magic, then length-prefixed CRC-checked
//	                 mutation records (codec.go) with seq > the
//	                 snapshot's seq (plus, transiently,
//	                 already-checkpointed records recovery skips)
//
// Recovery (Open) loads the snapshot, replays the WAL tail, discards a
// torn final record, and truncates the file to the valid prefix. The
// snapshot and its covering sequence number travel in one file renamed
// into place atomically, so there is no crash window in which they can
// disagree; WAL truncation after a checkpoint is pure space reclamation.
//
// That is the only layout this package reads or writes. Open refuses a
// directory an earlier build wrote in another — one holding a JSON-era
// snapshot.jsonl, or a wal.log that does not open with the magic (a
// JSON-era log has none, a dictionary-era one opens with skgwal2) — and
// leaves its files as they are (refuseEarlierFormat).
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
	// CompactBytes triggers a background checkpoint (snapshot + WAL
	// truncation) once the log exceeds this size. 0 means the 64 MiB
	// default; negative disables automatic compaction.
	CompactBytes int64
	// Codec is inert (see its type): there is one on-disk format.
	Codec Codec
	// TailRecords / TailBytes cap the in-memory replication tail
	// (tail.go): how far back a follower stream can be served without
	// rescanning the log file. Defaults: 8192 records, 8 MiB of wire bytes.
	TailRecords int
	TailBytes   int64
}

const (
	snapshotBinFile = "snapshot.skg"
	walFile         = "wal.log"
	lockFile        = "LOCK"
	// snapBinMagic opens a snapshot file; a uvarint covering seq follows,
	// then the graph binary stream (which has its own magic+CRC).
	snapBinMagic = "skgsnp2\n"
	// The JSON era's snapshot: its presence makes Open refuse the directory.
	jsonSnapshotFile = "snapshot.jsonl"
)

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
	owned := false
	defer func() {
		if !owned {
			lf.Close() // closing drops the flock
		}
	}()

	if err := refuseEarlierFormat(dir); err != nil {
		return nil, err
	}
	// A crashed checkpoint's leftover.
	os.Remove(filepath.Join(dir, snapshotBinFile+".tmp"))

	st, snapSeq, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, store: st, opts: opts, lock: lf}
	db.Recovered.SnapshotSeq = snapSeq

	walPath := filepath.Join(dir, walFile)
	lastSeq := snapSeq
	var validLen int64
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
		// Stream the valid prefix straight into the store, one unit at a
		// time, in one bulk bracket (replayLog) — recovery never
		// materializes the record list, which together with the bulk
		// economics is most of the difference between replaying 20k
		// records and loading the same state from a snapshot.
		res, rerr := replayLog(f, st, snapSeq)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		db.Recovered.Replayed, db.Recovered.TxDiscarded, db.Recovered.TornTail = res.applied, res.discarded, res.torn
		lastSeq, validLen = max(lastSeq, res.lastSeq), res.valid
		// A torn record, or a transaction left open by the end of the log
		// (a crash between a commit's group-flush frames), is cut off: the
		// appender resumes after the last whole unit.
		if res.torn {
			if terr := os.Truncate(walPath, res.valid); terr != nil {
				return nil, fmt.Errorf("storage: truncate torn wal: %w", terr)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}

	wal, err := openWAL(walPath, validLen, lastSeq, opts.Sync)
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

// refuseEarlierFormat returns Open's refusal of a directory it does not
// read: one with a snapshot.jsonl, or with a wal.log whose header
// logHeaderProblem refuses. It only reads; a refused directory is left
// byte for byte as it was.
func refuseEarlierFormat(dir string) error {
	path, what := filepath.Join(dir, jsonSnapshotFile), "a JSON-era snapshot"
	if _, err := os.Stat(path); err != nil {
		path, what = filepath.Join(dir, walFile), ""
		if f, err := os.Open(path); err == nil {
			head := make([]byte, len(walMagic))
			n, _ := io.ReadFull(f, head)
			f.Close()
			what = logHeaderProblem(head[:n])
		}
	}
	if what == "" {
		return nil
	}
	return fmt.Errorf("storage: %s is %s, which this build does not read (the directory is left untouched); "+
		"if an earlier build wrote it, opening the directory once with a build at or before commit 9caabe4 rewrites it in the current form", path, what)
}

// snapFile is a snapshot file opened past its header.
type snapFile struct {
	f   *os.File
	br  *bufio.Reader
	seq uint64 // the covering seq its header names
}

func (s *snapFile) close() {
	if s != nil {
		s.f.Close()
	}
}

// openSnapshot opens the snapshot at path and reads its header. Returns
// nil, nil when the file does not exist.
func openSnapshot(path string) (*snapFile, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: open snapshot: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(snapBinMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapBinMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a binary snapshot", path)
	}
	seq, err := binary.ReadUvarint(br)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: snapshot header: %w", err)
	}
	return &snapFile{f: f, br: br, seq: seq}, nil
}

// loadSnapshot loads the data directory's snapshot (a fresh store at
// seq 0 when there is none).
func loadSnapshot(dir string) (*graph.Store, uint64, error) {
	snap, err := openSnapshot(filepath.Join(dir, snapshotBinFile))
	if err != nil {
		return nil, 0, err
	}
	if snap == nil {
		return graph.New(), 0, nil
	}
	defer snap.close()
	st, err := graph.Load(snap.br)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: load snapshot: %w", err)
	}
	return st, snap.seq, nil
}

// writeBinSnapHeader frames a snapshot stream: the magic plus the
// uvarint covering seq. Checkpoint files and replication snapshot
// transfers (tail.go) share it, which is what lets a follower write
// the transfer verbatim as its snapshot.skg.
func writeBinSnapHeader(w io.Writer, seq uint64) error {
	hdr := make([]byte, 0, len(snapBinMagic)+binary.MaxVarintLen64)
	hdr = append(hdr, snapBinMagic...)
	hdr = binary.AppendUvarint(hdr, seq)
	_, err := w.Write(hdr)
	return err
}

// landSnapshot is the one way a snapshot.skg reaches a data directory —
// from a checkpoint or a replication transfer: write streams it into a
// temp file, which is fsynced, checked to open with a snapshot header (a
// truncated or foreign stream must not shadow a good directory) and
// renamed into place; then the directory is fsynced. A crash before the
// rename leaves a .tmp file Open removes.
func landSnapshot(dir string, write func(io.Writer) error) error {
	dst := filepath.Join(dir, snapshotBinFile)
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		var snap *snapFile
		snap, err = openSnapshot(tmp)
		snap.close()
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
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
	seq, payload, err := db.wal.Append(m, boundary)
	if err != nil {
		db.tail.cut(db.wal.LastSeq() + 1)
		db.scheduleCheckpoint()
		return // sticky until the checkpoint lands; Err() reports it
	}
	db.tail.add(seq, payload, boundary)
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

// writeSnapshot streams a snapshot of the store — the snapshot.skg
// format — to w and returns the WAL state it covers. Quiesce excludes
// writers (including an open transaction, which holds the writer lock
// from its first write to commit/rollback; snapshot reads proceed) for
// the duration, and the header reads (seq, fails) under the same lock as
// the state: both are captured at a transaction boundary, never
// mid-group, so a checkpoint can never persist half a transaction whose
// WAL group is then truncated away.
func (db *DB) writeSnapshot(w io.Writer) (seq, fails uint64, err error) {
	err = db.store.Quiesce(func() error {
		return db.store.SaveBinaryWithHeader(w, func(hw io.Writer) error {
			seq, fails = db.wal.state()
			return writeBinSnapHeader(hw, seq)
		})
	})
	return seq, fails, err
}

// Checkpoint lands a snapshot of the store (landSnapshot: temp file,
// fsync, atomic rename) and truncates the WAL if nothing was appended
// meanwhile.
func (db *DB) Checkpoint() error {
	began := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	var seq, fails uint64
	err := landSnapshot(db.dir, func(w io.Writer) (err error) {
		seq, fails, err = db.writeSnapshot(w)
		return err
	})
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
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
