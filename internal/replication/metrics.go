package replication

import "securitykg/internal/metrics"

// Process-wide replication counters. In a single-process deployment a
// leader and a follower can coexist (tests do exactly that), so these
// count events for whichever roles are active; the per-instance lag and
// seq gauges live on each server's own registry.
var (
	mFramesShipped = metrics.NewCounter("skg_replication_frames_shipped_total",
		"WAL records shipped to follower tail streams by a leader (records, not frames: a frame carries a batch).")
	mRecordsApplied = metrics.NewCounter("skg_replication_records_applied_total",
		"Shipped records applied by a replica (transaction groups count each member).")
	mReconnects = metrics.NewCounter("skg_replication_reconnects_total",
		"Replica tail-stream reconnect attempts after a broken stream.")
)
