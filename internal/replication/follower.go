package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"

	"securitykg/internal/backoff"
	"securitykg/internal/graph"
	"securitykg/internal/storage"
)

// ErrSnapshotRequired reports that the leader no longer holds WAL
// records back to the follower's position: a checkpoint truncated past
// it. Recovery requires a fresh snapshot bootstrap, which means an
// empty data directory — a running follower cannot swap its store
// in place, so it parks in the "stale" state (still serving its last
// applied snapshot of the graph) until restarted.
var ErrSnapshotRequired = errors.New("replication: leader requires snapshot bootstrap")

// ErrDiverged reports that applying a shipped record did not reproduce
// the leader's sequence numbering — the replica's state is not the
// leader's state. This should be impossible while replay determinism
// holds; treating it as fatal (rather than limping on) is the point.
var ErrDiverged = errors.New("replication: replica diverged from leader")

// Bootstrap prepares dir for a follower: if it already holds durable
// state, it is left alone (the follower resumes from its own WAL);
// otherwise a snapshot is fetched from leaderURL and installed,
// retrying with jittered backoff until it succeeds or ctx is done.
// Call before storage.Open — install requires the directory unlocked.
func Bootstrap(ctx context.Context, dir, leaderURL string, client *http.Client, lg *log.Logger) error {
	if storage.HasState(dir) {
		return nil
	}
	if client == nil {
		client = http.DefaultClient
	}
	pol := backoff.Default()
	for {
		err := fetchSnapshot(ctx, dir, leaderURL, client)
		if err == nil {
			if lg != nil {
				lg.Printf("replication: snapshot bootstrap from %s complete", leaderURL)
			}
			return nil
		}
		if lg != nil {
			lg.Printf("replication: snapshot bootstrap: %v (retrying)", err)
		}
		if serr := pol.SleepNext(ctx); serr != nil {
			return fmt.Errorf("replication: bootstrap abandoned: %w (last error: %v)", serr, err)
		}
	}
}

func fetchSnapshot(ctx context.Context, dir, leaderURL string, client *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leaderURL+"/replication/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("snapshot fetch: %s: %s", resp.Status, body)
	}
	// InstallSnapshot verifies the embedded header before renaming into
	// place, so a connection cut mid-transfer cannot install garbage.
	return storage.InstallSnapshot(dir, resp.Body)
}

// Replicator tails a leader's WAL into a local DB. All reads of the
// local store see exactly the prefixes the leader committed: a
// transaction group reaches the store only once its commit marker has
// arrived, through a real graph transaction — so concurrent readers get
// atomic visibility and the follower's own WAL ends up byte-compatible
// with the leader's.
type Replicator struct {
	DB     *storage.DB
	Leader string // leader base URL
	Client *http.Client
	Log    *log.Logger

	// Backoff paces reconnects; nil means backoff.Default().
	Backoff *backoff.Policy

	applied   atomic.Uint64 // last fully applied (group-boundary) seq
	waitMu    sync.Mutex
	waitCh    chan struct{} // closed and replaced when applied advances
	stateMu   sync.Mutex
	state     string
	lastErr   string
	leaderSeq uint64
	reconnect uint64

	// What this replica has applied since it started, in records and wire
	// bytes: the mean record size Status prices the lag at.
	appliedRecs, appliedBytes atomic.Int64

	// The streaming goroutine's decode state (sequential: no lock).
	// pending holds the wire bytes of a group whose frame ended before its
	// commit marker; unit decodes records into one reused slot.
	pending []byte
	unit    storage.UnitApplier
}

// NewReplicator wires a replicator over an already-open follower DB.
func NewReplicator(db *storage.DB, leaderURL string) *Replicator {
	r := &Replicator{
		DB:     db,
		Leader: leaderURL,
		Client: http.DefaultClient,
		waitCh: make(chan struct{}),
		state:  "connect",
	}
	r.applied.Store(db.LastSeq())
	return r
}

func (r *Replicator) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log.Printf(format, args...)
	}
}

// AppliedSeq returns the last fully applied sequence number — the
// replica-side read-your-writes watermark.
func (r *Replicator) AppliedSeq() uint64 { return r.applied.Load() }

// WaitApplied blocks until the replica has applied at least seq, or
// ctx is done.
func (r *Replicator) WaitApplied(ctx context.Context, seq uint64) error {
	for {
		if r.applied.Load() >= seq {
			return nil
		}
		r.waitMu.Lock()
		ch := r.waitCh
		r.waitMu.Unlock()
		if r.applied.Load() >= seq { // re-check: advance may have raced the fetch
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

func (r *Replicator) advanceApplied(seq uint64) {
	r.applied.Store(seq)
	r.waitMu.Lock()
	ch := r.waitCh
	r.waitCh = make(chan struct{})
	r.waitMu.Unlock()
	close(ch)
}

func (r *Replicator) setState(state string) {
	r.stateMu.Lock()
	r.state = state
	r.stateMu.Unlock()
}

func (r *Replicator) noteErr(err error) {
	r.stateMu.Lock()
	r.lastErr = err.Error()
	r.stateMu.Unlock()
}

// Status reports the replica-side replication state.
func (r *Replicator) Status() Status {
	r.stateMu.Lock()
	state, lastErr := r.state, r.lastErr
	leaderSeq, reconnects := r.leaderSeq, r.reconnect
	r.stateMu.Unlock()
	applied := r.applied.Load()
	st := Status{
		Role:         "replica",
		State:        state,
		Leader:       r.Leader,
		LastSeq:      r.DB.LastSeq(),
		CommittedSeq: applied,
		WALBytes:     r.DB.WALSize(),
		LeaderSeq:    leaderSeq,
		LastError:    lastErr,
		Reconnects:   reconnects,
	}
	if leaderSeq > applied {
		st.LagRecords = int64(leaderSeq - applied)
		if recs := r.appliedRecs.Load(); recs > 0 {
			st.LagBytes = st.LagRecords * r.appliedBytes.Load() / recs
		}
	}
	return st
}

// Run tails the leader until ctx is done, reconnecting with jittered
// backoff across stream failures. It returns nil on context
// cancellation, ErrSnapshotRequired when the leader can no longer
// serve the replica's position (the replica is parked "stale" — a
// restart re-bootstraps), and ErrDiverged if replay stops reproducing
// the leader's sequence numbers.
func (r *Replicator) Run(ctx context.Context) error {
	pol := r.Backoff
	if pol == nil {
		pol = backoff.Default()
	}
	if r.Client == nil {
		r.Client = http.DefaultClient
	}
	for {
		err := r.streamOnce(ctx, pol)
		switch {
		case ctx.Err() != nil:
			r.setState("stopped")
			return nil
		case errors.Is(err, ErrSnapshotRequired):
			r.setState("stale")
			r.noteErr(err)
			r.logf("replication: leader %s has truncated past seq %d; replica is STALE and read-only on old data — restart with an empty data dir to re-bootstrap", r.Leader, r.DB.LastSeq())
			return err
		case errors.Is(err, ErrDiverged):
			r.setState("diverged")
			r.noteErr(err)
			r.logf("replication: FATAL: %v", err)
			return err
		default:
			r.setState("reconnect")
			if err != nil {
				r.noteErr(err)
				r.logf("replication: stream from %s: %v (reconnecting)", r.Leader, err)
			}
			r.stateMu.Lock()
			r.reconnect++
			r.stateMu.Unlock()
			mReconnects.Inc()
			if serr := pol.SleepNext(ctx); serr != nil {
				r.setState("stopped")
				return nil
			}
		}
	}
}

// streamOnce holds one tail connection: dial from the last applied
// seq + 1, then apply frames until the stream breaks. A clean EOF
// (leader closed, e.g. restart) returns nil and the caller re-dials.
func (r *Replicator) streamOnce(ctx context.Context, pol *backoff.Policy) error {
	// Any partially buffered group from a previous connection is
	// discarded: the new stream restarts from the last group boundary.
	r.pending = r.pending[:0]
	from := r.DB.LastSeq() + 1
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/replication/wal?from=%d", r.Leader, from), nil)
	if err != nil {
		return err
	}
	resp, err := r.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return ErrSnapshotRequired
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("tail stream: %s: %s", resp.Status, body)
	}

	r.setState("tail")
	fr := newFrameReader(resp.Body)
	for first := true; ; first = false {
		kind, body, err := fr.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if first {
			// The connection produced a valid frame: it is healthy, so
			// the next failure starts backoff from the base again.
			pol.Reset()
		}
		if kind == frameHeartbeat {
			committed, _, err := parseHeartbeat(body)
			if err != nil {
				return err
			}
			r.stateMu.Lock()
			r.leaderSeq = committed
			r.stateMu.Unlock()
		} else if err := r.handleRecords(body); err != nil {
			return err
		}
	}
}

// handleRecords folds one records frame, one atomic unit at a time
// (storage.NextUnit, the cut recovery makes too): a bare record, or a
// transaction group once all of it has arrived — straight out of the
// frame when the frame holds it whole (any frame of a leader not backed
// up past frameCap), out of pending when it was split.
func (r *Replicator) handleRecords(batch []byte) error {
	for len(batch) > 0 {
		unit, rest, end, err := storage.NextUnit(batch, len(r.pending) > 0)
		if err != nil {
			return fmt.Errorf("%w: %v", errBadFrame, err)
		}
		if end == storage.UnitAborted {
			return fmt.Errorf("%w: leader shipped a group that does not commit", ErrDiverged)
		}
		if end == storage.UnitOpen || len(r.pending) > 0 {
			r.pending = append(r.pending, unit...)
			unit = r.pending
		}
		if end == storage.UnitOpen {
			return nil // the rest is in the next frame
		}
		err = r.applyUnit(unit, end == storage.UnitGroup)
		r.pending = r.pending[:0]
		if err != nil {
			return err
		}
		batch = rest
	}
	return nil
}

// applyUnit replays one bare record through the store, or one complete
// group ([tx_begin, mutations..., tx_commit]) through a graph
// transaction as it decodes it, so readers see the group atomically.
// Either way the mutation hook re-emits the unit into the local WAL,
// reproducing the leader's records, markers included, under the same
// sequence numbers: each seq is checked as it is decoded and the log's
// position once the unit is in; a mismatch is divergence and fatal.
func (r *Replicator) applyUnit(unit []byte, group bool) error {
	var (
		dst interface{ Apply(graph.Mutation) error } = r.DB.Store()
		tx  *graph.Tx
	)
	if group {
		tx = r.DB.Store().BeginTx()
		dst = tx
	}
	first := r.DB.LastSeq()
	last, _, err := r.unit.Apply(dst, unit, first, first)
	if err != nil {
		if group {
			tx.Rollback()
		}
		if errors.Is(err, storage.ErrBadRecord) {
			return fmt.Errorf("%w: %v", errBadFrame, err)
		}
		return fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	if group {
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("%w: tx commit for seq %d: %v", ErrDiverged, last, err)
		}
	}
	if got := r.DB.LastSeq(); got != last {
		return fmt.Errorf("%w: applied through seq %d but local WAL is at %d (no-op replay?)", ErrDiverged, last, got)
	}
	mRecordsApplied.Add(int64(last - first))
	r.appliedRecs.Add(int64(last - first))
	r.appliedBytes.Add(int64(len(unit)))
	r.advanceApplied(last)
	return nil
}

// RegisterStatus mounts /replication/status for a replica.
func (r *Replicator) RegisterStatus(mux *http.ServeMux) {
	mux.HandleFunc("/replication/status", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.Status())
	})
}
