package storage

import "securitykg/internal/metrics"

// Durability counters on the process-wide registry. The append-path
// increments are atomic adds on an already-mutex-guarded path, keeping
// the zero-alloc binary append guarantee intact (counters allocate at
// package init, never per record).
var (
	mWALAppends = metrics.NewCounter("skg_wal_appends_total",
		"WAL records appended (acknowledged writes).")
	mWALBytes = metrics.NewCounter("skg_wal_bytes_total",
		"Bytes written to the WAL, frame headers included.")
	mWALFsyncs = metrics.NewCounter("skg_wal_fsyncs_total",
		"WAL fsync calls (one per bare record or transaction group under SyncAlways, one per interval under group commit).")
	mCheckpointSeconds = metrics.NewHistogram("skg_checkpoint_seconds",
		"Checkpoint durations: snapshot write + fsync + rename + WAL truncation.",
		metrics.DurationBuckets)
	mCheckpoints = metrics.NewCounter("skg_checkpoints_total",
		"Completed checkpoints (snapshot + WAL truncation).")
)
