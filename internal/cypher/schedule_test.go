package cypher

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"securitykg/internal/graph"
)

// Schedule-driven concurrency harness for MVCC snapshot reads and
// multi-statement transactions.
//
// Sessions (2-4 of them) run a key/value workload over KV nodes —
// SET/GET/DEL plus BEGIN/COMMIT/ROLLBACK — against one engine, with the
// interleaving fixed by a schedule: scripted anomaly scenarios plus
// randomized schedules replayed deterministically per seed. Every GET
// is checked against a snapshot-isolation model (the serial oracle:
// committed map + per-transaction snapshot + own-writes overlay), and
// the final store must equal the model's committed state exactly.
//
// The store is single-writer: a transaction that has written holds the
// writer lock until it ends, so the schedule generator allows at most
// one session with pending uncommitted writes and suspends all other
// writes (including autocommit ones) while it is pending — a turn-based
// schedule must never generate a turn that would block. Reads never
// block, which is precisely the MVCC property under test.
//
// make test runs this file twice: once inside the full -race suite and
// once more as a dedicated -race schedule pass.

// schedOp is one turn of a schedule: session `sess` performs `kind`.
type schedOp struct {
	sess int
	kind string // begin | commit | rollback | set | del | get
	key  string
	val  string
}

// kvEnt is one committed key: its value plus a generation that changes
// when the key's backing node is re-created. Writes in this engine act
// on *latest* state (a MERGE augments the node as it now is), so the
// oracle tracks node identity to predict them exactly.
type kvEnt struct {
	val string
	gen int64
}

// sessModel is the oracle's view of one session.
type sessModel struct {
	inTx    bool
	writes  bool
	snap    map[string]kvEnt  // committed state at BEGIN
	overlay map[string]*kvEnt // own writes; nil value = deleted
}

// kvModel is the snapshot-isolation oracle.
type kvModel struct {
	committed map[string]kvEnt
	sessions  []*sessModel
	nextGen   int64
}

func newKVModel(sessions int) *kvModel {
	m := &kvModel{committed: map[string]kvEnt{}}
	for i := 0; i < sessions; i++ {
		m.sessions = append(m.sessions, &sessModel{})
	}
	return m
}

// get predicts what session sess must read for key.
func (m *kvModel) get(sess int, key string) (string, bool) {
	sm := m.sessions[sess]
	if sm.inTx {
		if e, touched := sm.overlay[key]; touched {
			if e == nil {
				return "", false
			}
			return e.val, true
		}
		e, ok := sm.snap[key]
		return e.val, ok
	}
	e, ok := m.committed[key]
	return e.val, ok
}

// writerPending reports whether some transaction holds the writer lock.
func (m *kvModel) writerPending() (int, bool) {
	for i, sm := range m.sessions {
		if sm.inTx && sm.writes {
			return i, true
		}
	}
	return 0, false
}

// canWrite reports whether a SET (del=false) or DEL (del=true) of key
// by sess is schedulable with exact oracle semantics. Inside a
// transaction, writes act on latest state while reads see the
// snapshot; the two agree — and the oracle stays exact — only when the
// key's backing node is identity-stable: untouched keys must still be
// backed by the node the snapshot saw (same generation), a DEL needs a
// visible target, and an invisible-but-recreated key must not be
// merged into (the transaction's reads would then see two nodes).
func (m *kvModel) canWrite(sess int, key string, del bool) bool {
	sm := m.sessions[sess]
	if !sm.inTx {
		return true
	}
	if e, touched := sm.overlay[key]; touched {
		return !del || e != nil
	}
	sEnt, inSnap := sm.snap[key]
	cEnt, inCommitted := m.committed[key]
	if !inSnap {
		// A SET merges into the latest node (or creates one) and the
		// transaction reads only its own resulting version — exact. A DEL
		// would no-op (no visible target): unschedulable.
		return !del
	}
	return inCommitted && cEnt.gen == sEnt.gen
}

// writeGen is the generation a SET inside a transaction binds: merges
// land on the latest node when one exists, else create a fresh one.
func (m *kvModel) writeGen(sess int, key string) int64 {
	sm := m.sessions[sess]
	if e, touched := sm.overlay[key]; touched && e != nil {
		return e.gen
	} else if touched {
		m.nextGen++
		return m.nextGen // own-deleted, re-created fresh
	}
	if e, ok := m.committed[key]; ok {
		return e.gen
	}
	m.nextGen++
	return m.nextGen
}

func copyKV(src map[string]kvEnt) map[string]kvEnt {
	dst := make(map[string]kvEnt, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// schedHarness executes a schedule against a real engine while stepping
// the model in lockstep.
type schedHarness struct {
	t     *testing.T
	store *graph.Store
	e     *Engine
	txs   []*Tx
	model *kvModel
}

func newSchedHarness(t *testing.T, sessions int) *schedHarness {
	s := graph.New()
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})
	return &schedHarness{t: t, store: s, e: e, txs: make([]*Tx, sessions), model: newKVModel(sessions)}
}

// query routes one statement through the session's transaction or the
// shared engine (autocommit).
func (h *schedHarness) query(sess int, src string, args map[string]any) (*Result, error) {
	if tx := h.txs[sess]; tx != nil {
		return tx.Query(src, args)
	}
	return h.e.Query(src, args)
}

// step executes one schedule turn and checks it against the model.
func (h *schedHarness) step(i int, op schedOp) {
	t := h.t
	t.Helper()
	sm := h.model.sessions[op.sess]
	fail := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("turn %d (S%d %s %s): %s", i, op.sess, op.kind, op.key, fmt.Sprintf(format, a...))
	}
	switch op.kind {
	case "begin":
		if h.txs[op.sess] != nil {
			fail("schedule bug: session already in a transaction")
		}
		tx, err := h.e.Begin()
		if err != nil {
			fail("Begin: %v", err)
		}
		h.txs[op.sess] = tx
		sm.inTx, sm.writes = true, false
		sm.snap = copyKV(h.model.committed)
		sm.overlay = map[string]*kvEnt{}
	case "commit":
		if err := h.txs[op.sess].Commit(); err != nil {
			fail("Commit: %v", err)
		}
		h.txs[op.sess] = nil
		for k, e := range sm.overlay {
			if e == nil {
				delete(h.model.committed, k)
			} else {
				h.model.committed[k] = *e
			}
		}
		sm.inTx, sm.writes, sm.snap, sm.overlay = false, false, nil, nil
	case "rollback":
		if err := h.txs[op.sess].Rollback(); err != nil {
			fail("Rollback: %v", err)
		}
		h.txs[op.sess] = nil
		sm.inTx, sm.writes, sm.snap, sm.overlay = false, false, nil, nil
	case "set":
		if !h.model.canWrite(op.sess, op.key, false) {
			fail("schedule bug: SET not identity-safe here")
		}
		gen := h.model.writeGen(op.sess, op.key)
		_, err := h.query(op.sess, `merge (n:KV {name: $k}) set n.val = $v`,
			map[string]any{"k": op.key, "v": op.val})
		if err != nil {
			fail("SET: %v", err)
		}
		if sm.inTx {
			sm.overlay[op.key] = &kvEnt{val: op.val, gen: gen}
			sm.writes = true
		} else {
			h.model.committed[op.key] = kvEnt{val: op.val, gen: gen}
		}
	case "del":
		if !h.model.canWrite(op.sess, op.key, true) {
			fail("schedule bug: DEL not identity-safe here")
		}
		_, err := h.query(op.sess, `match (n:KV {name: $k}) detach delete n`,
			map[string]any{"k": op.key})
		if err != nil {
			fail("DEL: %v", err)
		}
		if sm.inTx {
			sm.overlay[op.key] = nil
			sm.writes = true
		} else {
			delete(h.model.committed, op.key)
		}
	case "get":
		res, err := h.query(op.sess, `match (n:KV {name: $k}) return n.val`,
			map[string]any{"k": op.key})
		if err != nil {
			fail("GET: %v", err)
		}
		wantVal, wantOK := h.model.get(op.sess, op.key)
		switch {
		case len(res.Rows) == 0:
			if wantOK {
				fail("read missing, model says %q", wantVal)
			}
		case len(res.Rows) == 1:
			got := res.Rows[0][0].String()
			if !wantOK {
				fail("read %q, model says missing", got)
			}
			if got != wantVal {
				fail("read %q, model says %q — snapshot isolation violated", got, wantVal)
			}
		default:
			fail("%d rows for one key", len(res.Rows))
		}
	default:
		fail("unknown op")
	}
}

// finish ends any still-open transactions (committing when told to) and
// checks the final store against the model's committed state.
func (h *schedHarness) finish(commitOpen bool) {
	t := h.t
	t.Helper()
	for sess, tx := range h.txs {
		if tx == nil {
			continue
		}
		kind := "rollback"
		if commitOpen {
			kind = "commit"
		}
		h.step(-1, schedOp{sess: sess, kind: kind})
	}
	got := map[string]string{}
	res, err := h.e.Query(`match (n:KV) return n.name, n.val`, nil)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	for _, row := range res.Rows {
		got[row[0].String()] = row[1].String()
	}
	if len(got) != len(h.model.committed) {
		t.Fatalf("final state has %d keys, model has %d\nstore: %v\nmodel: %v",
			len(got), len(h.model.committed), got, h.model.committed)
	}
	for k, v := range h.model.committed {
		if got[k] != v.val {
			t.Fatalf("final state[%s] = %q, model says %q", k, got[k], v.val)
		}
	}
	// MVCC bookkeeping must be fully purged once no snapshot or
	// transaction remains: steady state is the exact pre-MVCC store.
	if h.store.MVCCStats() != (graph.MVCCStats{}) {
		t.Fatalf("history not purged after all sessions ended: %+v", h.store.MVCCStats())
	}
}

func runSchedule(t *testing.T, sessions int, ops []schedOp, commitOpen bool) {
	t.Helper()
	h := newSchedHarness(t, sessions)
	for i, op := range ops {
		h.step(i, op)
	}
	h.finish(commitOpen)
}

// TestScheduleDirtyRead: another session must never observe a
// transaction's uncommitted write — and must observe it right after
// commit.
func TestScheduleDirtyRead(t *testing.T) {
	runSchedule(t, 2, []schedOp{
		{sess: 1, kind: "set", key: "k1", val: "old"},
		{sess: 0, kind: "begin"},
		{sess: 0, kind: "set", key: "k1", val: "new"},
		{sess: 0, kind: "set", key: "k2", val: "extra"},
		{sess: 1, kind: "get", key: "k1"}, // model: "old" — dirty read would see "new"
		{sess: 1, kind: "get", key: "k2"}, // model: missing
		{sess: 0, kind: "get", key: "k1"}, // own write: "new"
		{sess: 0, kind: "commit"},
		{sess: 1, kind: "get", key: "k1"}, // now "new"
		{sess: 1, kind: "get", key: "k2"},
	}, false)
}

// TestScheduleRepeatableRead: a transaction's reads stay pinned at its
// BEGIN even as other sessions commit over the same keys.
func TestScheduleRepeatableRead(t *testing.T) {
	runSchedule(t, 3, []schedOp{
		{sess: 1, kind: "set", key: "k1", val: "v1"},
		{sess: 0, kind: "begin"},
		{sess: 0, kind: "get", key: "k1"}, // v1
		{sess: 1, kind: "set", key: "k1", val: "v2"},
		{sess: 2, kind: "set", key: "k3", val: "late"},
		{sess: 0, kind: "get", key: "k1"}, // still v1
		{sess: 0, kind: "get", key: "k3"}, // still missing
		{sess: 1, kind: "del", key: "k1"},
		{sess: 0, kind: "get", key: "k1"}, // still v1: deleted version resolved from history
		{sess: 0, kind: "commit"},
		{sess: 0, kind: "get", key: "k1"}, // gone now
		{sess: 0, kind: "get", key: "k3"},
	}, false)
}

// TestScheduleRollbackAtomicity: a rolled-back transaction's writes —
// sets and deletes across several statements — all vanish.
func TestScheduleRollbackAtomicity(t *testing.T) {
	runSchedule(t, 2, []schedOp{
		{sess: 1, kind: "set", key: "a", val: "keep"},
		{sess: 1, kind: "set", key: "b", val: "keep"},
		{sess: 0, kind: "begin"},
		{sess: 0, kind: "set", key: "a", val: "clobber"},
		{sess: 0, kind: "del", key: "b"},
		{sess: 0, kind: "set", key: "c", val: "phantom"},
		{sess: 0, kind: "get", key: "c"}, // own write visible pre-rollback
		{sess: 0, kind: "rollback"},
		{sess: 1, kind: "get", key: "a"}, // keep
		{sess: 1, kind: "get", key: "b"}, // keep
		{sess: 1, kind: "get", key: "c"}, // missing
	}, false)
}

// TestScheduleOwnWritesAcrossStatements: read-your-writes inside a
// transaction, including deletes and re-creates of the same key.
func TestScheduleOwnWritesAcrossStatements(t *testing.T) {
	runSchedule(t, 2, []schedOp{
		{sess: 0, kind: "begin"},
		{sess: 0, kind: "set", key: "k", val: "one"},
		{sess: 0, kind: "get", key: "k"},
		{sess: 0, kind: "del", key: "k"},
		{sess: 0, kind: "get", key: "k"}, // deleted by own write
		{sess: 0, kind: "set", key: "k", val: "two"},
		{sess: 0, kind: "get", key: "k"},
		{sess: 1, kind: "get", key: "k"}, // outside: never existed
	}, true) // commit the open transaction; final state must hold k=two
}

// TestScheduleRandomInterleavings replays randomized schedules — 2-4
// sessions, ~40 turns each — deterministically per seed, holding the
// generator to the single-writer discipline and the checker to the
// snapshot-isolation oracle.
func TestScheduleRandomInterleavings(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomSchedule(t, int64(seed))
		})
	}
}

func runRandomSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sessions := 2 + rng.Intn(3)
	h := newSchedHarness(t, sessions)
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}

	for i := 0; i < 40; i++ {
		// Draw candidate turns until a legal one comes up (an autocommit
		// GET is always legal, so this terminates).
		for {
			sess := rng.Intn(sessions)
			sm := h.model.sessions[sess]
			op := schedOp{sess: sess, key: keys[rng.Intn(len(keys))], val: "v" + strconv.Itoa(rng.Intn(50))}
			writer, pending := h.model.writerPending()
			r := rng.Intn(100)
			if sm.inTx {
				switch {
				case r < 45:
					op.kind = "get"
				case r < 75:
					// A write inside this transaction: legal only if no OTHER
					// transaction already holds the writer lock, and only on
					// identity-safe keys (canWrite keeps the oracle exact).
					if pending && writer != sess {
						continue
					}
					del := rng.Intn(4) == 0
					if !h.model.canWrite(sess, op.key, del) {
						continue
					}
					if del {
						op.kind = "del"
					} else {
						op.kind = "set"
					}
				case r < 90:
					op.kind = "commit"
				default:
					op.kind = "rollback"
				}
			} else {
				switch {
				case r < 20:
					op.kind = "begin"
				case r < 65:
					op.kind = "get"
				default:
					// Autocommit writes block behind a pending tx writer:
					// not schedulable on this turn.
					if pending {
						continue
					}
					if rng.Intn(4) == 0 {
						op.kind = "del"
					} else {
						op.kind = "set"
					}
				}
			}
			h.step(i, op)
			break
		}
	}
	h.finish(rng.Intn(2) == 0)
}

// TestConcurrentReadersSeeAtomicWrites is the genuinely-parallel half
// of the harness, meaningful under -race: a writer updates a pair of
// keys to the same value — sometimes in one statement (implicit
// transaction), sometimes across two statements of an explicit one —
// while reader goroutines continuously assert the pair is never torn
// and never goes backwards. Before MVCC a reader could interleave with
// a half-applied statement; now every query reads one snapshot.
func TestConcurrentReadersSeeAtomicWrites(t *testing.T) {
	s := graph.New()
	s.MergeNode("KV", "left", map[string]string{"val": "0"})
	s.MergeNode("KV", "right", map[string]string{"val": "0"})
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})

	const iters = 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= iters; i++ {
			args := map[string]any{"v": strconv.Itoa(i)}
			if i%3 == 0 {
				tx, err := e.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Query(`match (a:KV {name: "left"}) set a.val = $v`, args); err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Query(`match (b:KV {name: "right"}) set b.val = $v`, args); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			} else if _, err := e.Query(
				`match (a:KV {name: "left"}), (b:KV {name: "right"}) set a.val = $v, b.val = $v`, args); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Query(`match (a:KV {name: "left"}), (b:KV {name: "right"}) return a.val, b.val`, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 1 {
					t.Errorf("pair read returned %d rows", len(res.Rows))
					return
				}
				l, rr := res.Rows[0][0].String(), res.Rows[0][1].String()
				if l != rr {
					t.Errorf("torn read: left=%s right=%s", l, rr)
					return
				}
				n, err := strconv.Atoi(l)
				if err != nil {
					t.Errorf("bad value %q", l)
					return
				}
				if n < last {
					t.Errorf("non-monotonic read: %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
}

// TestSchedulePausedCursorKeepsSnapshot: the executor resolves scanned
// and expanded nodes in chunks (one read-lock hold per chunk, released
// before the cursor returns), so a cursor can sit between two chunks —
// or in the middle of a resolved one — for as long as its caller likes.
// Commits that land meanwhile (attribute updates, deletes, creations,
// both bare and transactional) must neither block behind the paused
// cursor nor become visible to it: every row it goes on to emit, from
// the chunk it was in and from chunks it had not read yet, is the
// snapshot's. Afterwards the MVCC overlay is empty again.
func TestSchedulePausedCursorKeepsSnapshot(t *testing.T) {
	const n = 1000 // several 256-node chunks after the 16-node first one
	s := graph.New()
	hub, _ := s.MergeNode("Hub", "hub", nil)
	for i := 0; i < n; i++ {
		id, _ := s.MergeNode("KV", fmt.Sprintf("k%04d", i), map[string]string{"val": "old"})
		if _, _, err := s.AddEdge(hub, "HAS", id, nil); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(s, Options{UseIndexes: true})
	for _, q := range []string{
		`match (k:KV) return k.name, k.val`,                            // label scan
		`match (h:Hub {name: "hub"})-[:HAS]->(k) return k.name, k.val`, // expand targets
		`match (h:Hub {name: "hub"})-[:HAS*1..1]->(k) return k.name, k.val`,
	} {
		for _, pauseAt := range []int{1, 16, 20, 300} {
			rows, err := e.QueryRows(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Commits while the cursor is parked: none may block.
			commit := func() error {
				if _, err := e.Query(`match (k:KV) set k.val = "new"`, nil); err != nil {
					return err
				}
				tx, err := e.Begin()
				if err != nil {
					return err
				}
				if _, err := tx.Query(`match (k:KV) where k.name >= "k0900" detach delete k`, nil); err != nil {
					return err
				}
				if _, err := tx.Query(`create (k:KV {name: "k9999", val: "new"})`, nil); err != nil {
					return err
				}
				return tx.Commit()
			}
			seen := map[string]bool{}
			err = rows.Drain(func(row []Value) error {
				name, val := row[0].Str, row[1].Str
				if val != "old" || seen[name] {
					t.Fatalf("%s: paused at %d, row %d is %s=%s", q, pauseAt, len(seen), name, val)
				}
				seen[name] = true
				if len(seen) == pauseAt {
					return commit()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != n {
				t.Fatalf("%s: paused at %d: cursor emitted %d rows, snapshot had %d", q, pauseAt, len(seen), n)
			}
			if st := s.MVCCStats(); st != (graph.MVCCStats{}) {
				t.Fatalf("%s: MVCC overlay not purged after the cursor closed: %+v", q, st)
			}
			// Restore the fixture for the next round.
			if _, err := e.Query(`match (k:KV {name: "k9999"}) detach delete k`, nil); err != nil {
				t.Fatal(err)
			}
			for i := 900; i < n; i++ {
				id, _ := s.MergeNode("KV", fmt.Sprintf("k%04d", i), nil)
				if _, _, err := s.AddEdge(hub, "HAS", id, nil); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Query(`match (k:KV) set k.val = "old"`, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}
