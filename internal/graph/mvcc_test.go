package graph

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func saveBytesOf(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotSeesStateAtOpen(t *testing.T) {
	s := New()
	s.IndexAttr("sev")
	a, _ := s.MergeNode("CVE", "a", map[string]string{"sev": "high"})
	b, _ := s.MergeNode("CVE", "b", nil)
	e, _, err := s.AddEdge(a, "affects", b, nil)
	if err != nil {
		t.Fatal(err)
	}

	sn := s.Snapshot()
	defer sn.Release()

	// Mutate after the snapshot: attr change, node delete, new node+edge.
	if err := setAttr(s, a, "sev", "low"); err != nil {
		t.Fatal(err)
	}
	if err := deleteNode(s, b); err != nil {
		t.Fatal(err)
	}
	c, _ := s.MergeNode("CVE", "c", nil)
	if _, _, err := s.AddEdge(a, "affects", c, nil); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the original world.
	if got := sn.Node(a).Attrs.Get("sev"); got != "high" {
		t.Errorf("snapshot sees sev=%q, want high", got)
	}
	if sn.Node(b) == nil {
		t.Error("snapshot lost deleted node b")
	}
	if sn.Node(c) != nil {
		t.Error("snapshot sees node c created after open")
	}
	if sn.Edge(e) == nil {
		t.Error("snapshot lost edge deleted via DeleteNode(b)")
	}
	if got := len(sn.Edges(a, Out)); got != 1 {
		t.Errorf("snapshot Edges(a) = %d, want 1", got)
	}
	if got := len(sn.AllNodeIDs()); got != 2 {
		t.Errorf("snapshot AllNodeIDs = %d, want 2", got)
	}
	if sn.FindNode("CVE", "b") == nil {
		t.Error("snapshot FindNode(b) = nil")
	}
	if sn.FindNode("CVE", "c") != nil {
		t.Error("snapshot FindNode(c) != nil")
	}
	if got := len(sn.NodeIDsByAttr("sev", "high")); got != 1 {
		t.Errorf("snapshot NodeIDsByAttr(sev=high) = %d, want 1", got)
	}
	if got := len(sn.NodeIDsByAttr("sev", "low")); got != 0 {
		t.Errorf("snapshot NodeIDsByAttr(sev=low) = %d, want 0", got)
	}
	if got := len(sn.NodesByType("CVE")); got != 2 {
		t.Errorf("snapshot NodesByType = %d, want 2", got)
	}
	inc := sn.IncidentEdges(nil, a, Both, "")
	if len(inc) != 1 || inc[0].Other != b {
		t.Errorf("snapshot IncidentEdges(a) = %+v, want one edge to b", inc)
	}

	// A new snapshot sees the new world.
	now := s.Snapshot()
	defer now.Release()
	if got := now.Node(a).Attrs.Get("sev"); got != "low" {
		t.Errorf("new snapshot sees sev=%q, want low", got)
	}
	if now.Node(b) != nil {
		t.Error("new snapshot still has node b")
	}
}

func TestSnapshotReleasePurgesHistory(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("T", "a", nil)
	sn := s.Snapshot()
	if err := setAttr(s, a, "k", "v"); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	grew := len(s.nodeOld) > 0
	s.mu.RUnlock()
	if !grew {
		t.Fatal("history not recorded while snapshot open")
	}
	sn.Release()
	sn.Release() // idempotent
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.nodeOld) != 0 || len(s.nodeBegin) != 0 || len(s.edgeOld) != 0 || len(s.edgeBegin) != 0 || s.snaps.Load() != 0 {
		t.Errorf("history not purged after release: nodeOld=%d nodeBegin=%d snaps=%d",
			len(s.nodeOld), len(s.nodeBegin), s.snaps.Load())
	}
}

func TestTxIsolationAndCommit(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("T", "a", nil)

	before := s.Snapshot()
	defer before.Release()

	tx := s.BeginTx()
	bID := tx.MergeNode("T", "b", nil).Node.ID
	if _, err := tx.SetAttr(a, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.AddEdge(a, "rel", bID, nil); err != nil {
		t.Fatal(err)
	}

	// Tx sees its own writes.
	if tx.Snap().Node(bID) == nil {
		t.Error("tx cannot see its own created node")
	}
	if got := tx.Snap().Node(a).Attrs.Get("k"); got != "v" {
		t.Errorf("tx sees k=%q, want v", got)
	}
	if got := len(tx.Snap().Edges(a, Out)); got != 1 {
		t.Errorf("tx Edges(a) = %d, want 1", got)
	}

	// A snapshot opened mid-transaction must not see uncommitted writes.
	mid := s.Snapshot()
	if mid.Node(bID) != nil {
		t.Error("mid-tx snapshot sees uncommitted node")
	}
	if got := mid.Node(a).Attrs.Get("k"); got != "" {
		t.Errorf("mid-tx snapshot sees uncommitted attr %q", got)
	}
	if got := len(mid.NodesByType("T")); got != 1 {
		t.Errorf("mid-tx snapshot NodesByType = %d, want 1", got)
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Errorf("double commit = %v, want ErrTxDone", err)
	}

	// Pinned snapshots keep their view even after the commit.
	if mid.Node(bID) != nil {
		t.Error("mid snapshot sees committed-later node")
	}
	if before.Node(bID) != nil {
		t.Error("before snapshot sees committed-later node")
	}
	mid.Release()

	// New snapshots see everything.
	after := s.Snapshot()
	defer after.Release()
	if after.Node(bID) == nil {
		t.Error("committed node not visible")
	}
	if got := after.Node(a).Attrs.Get("k"); got != "v" {
		t.Errorf("after snapshot k=%q, want v", got)
	}
}

func TestTxRollbackRestoresEverything(t *testing.T) {
	s := New()
	s.IndexAttr("sev")
	a, _ := s.MergeNode("CVE", "a", map[string]string{"sev": "high"})
	b, _ := s.MergeNode("CVE", "b", nil)
	if _, _, err := s.AddEdge(a, "affects", b, nil); err != nil {
		t.Fatal(err)
	}
	want := saveBytesOf(t, s)
	wantStats := s.Stats()

	tx := s.BeginTx()
	if _, err := tx.DeleteNode(b, true); err != nil { // cascades to the edge
		t.Fatal(err)
	}
	// Reclaim b's (type, name) under a new ID, then more churn.
	b2 := tx.MergeNode("CVE", "b", map[string]string{"sev": "low"}).Node.ID
	if b2 == b {
		t.Fatalf("expected fresh id for recreated node, got %d", b2)
	}
	if _, err := tx.SetAttr(a, "sev", "none"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.AddEdge(b2, "affects", a, nil); err != nil {
		t.Fatal(err)
	}
	c := tx.MergeNode("Malware", "c", nil).Node.ID
	if _, err := tx.DeleteNode(c, true); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	if got := saveBytesOf(t, s); !bytes.Equal(got, want) {
		t.Errorf("store state after rollback differs from pre-tx state:\npre:  %s\npost: %s", want, got)
	}
	if got := s.Stats(); got.MergeHits != wantStats.MergeHits {
		t.Errorf("mergeHits = %d, want %d", got.MergeHits, wantStats.MergeHits)
	}
	if n := latest(t, s, func(sn *Snap) *Node { return sn.FindNode("CVE", "b") }); n == nil || n.ID != b {
		t.Errorf("FindNode(b) = %+v, want id %d", n, b)
	}
	if got := len(latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("sev", "high") })); got != 1 {
		t.Errorf("NodeIDsByAttr(high) = %d, want 1", got)
	}
	if got := len(latest(t, s, func(sn *Snap) []NodeID { return sn.NodeIDsByAttr("sev", "none") })); got != 0 {
		t.Errorf("NodeIDsByAttr(none) = %d, want 0", got)
	}
	if got := len(latest(t, s, func(sn *Snap) []*Edge { return sn.Edges(a, Both) })); got != 1 {
		t.Errorf("Edges(a) = %d, want 1", got)
	}
	checkLiveCounts(t, s)
	// Allocators restored: the next node reuses the rolled-back ID space.
	d, _ := s.MergeNode("T", "d", nil)
	if d != b+1 {
		t.Errorf("next node id = %d, want %d", d, b+1)
	}
}

func TestTxWALBuffering(t *testing.T) {
	s := New()
	var log []MutationOp
	s.SetMutationHook(func(m Mutation) { log = append(log, m.Op) })

	// Multi-mutation tx commits as a wrapped group.
	tx := s.BeginTx()
	a := tx.MergeNode("T", "a", nil).Node.ID
	bID := tx.MergeNode("T", "b", nil).Node.ID
	if _, err := tx.AddEdge(a, "rel", bID, nil); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Fatalf("hook fired before commit: %v", log)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []MutationOp{OpTxBegin, OpMergeNode, OpMergeNode, OpAddEdge, OpTxCommit}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("committed log = %v, want %v", log, want)
	}

	// Single-mutation tx logs as a bare record.
	log = nil
	tx2 := s.BeginTx()
	if _, err := tx2.SetAttr(a, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != fmt.Sprint([]MutationOp{OpSetAttr}) {
		t.Errorf("single-mutation log = %v, want [set_attr]", log)
	}

	// Rolled-back tx logs nothing.
	log = nil
	tx3 := s.BeginTx()
	tx3.MergeNode("T", "x", nil)
	if err := tx3.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Errorf("rollback logged %v", log)
	}

	// Read-only tx commits without logging or blocking.
	log = nil
	tx4 := s.BeginTx()
	_ = tx4.Snap().Node(a)
	if err := tx4.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 {
		t.Errorf("read-only tx logged %v", log)
	}
}

// TestConcurrentSnapshotReadsDuringTx drives parallel snapshot readers
// while a writer transaction churns; every reader must observe one of
// the committed states (sum invariant), never a torn intermediate.
func TestConcurrentSnapshotReadsDuringTx(t *testing.T) {
	s := New()
	const keys = 8
	ids := make([]NodeID, keys)
	for i := range ids {
		ids[i], _ = s.MergeNode("K", fmt.Sprintf("k%d", i), map[string]string{"v": "0"})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				first := sn.Node(ids[0]).Attrs.Get("v")
				for _, id := range ids {
					if got := sn.Node(id).Attrs.Get("v"); got != first {
						t.Errorf("torn read: node %d has v=%q, first had %q", id, got, first)
						sn.Release()
						return
					}
				}
				sn.Release()
			}
		}()
	}
	// The writer sets every key to the round number in one tx per round;
	// odd rounds roll back, so only even values ever become visible.
	for round := 1; round <= 50; round++ {
		tx := s.BeginTx()
		v := fmt.Sprint(round)
		for _, id := range ids {
			if _, err := tx.SetAttr(id, "v", v); err != nil {
				t.Fatal(err)
			}
		}
		if round%2 == 1 {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := latest(t, s, func(sn *Snap) *Node { return sn.Node(ids[0]) }).Attrs.Get("v"); got != "50" {
		t.Errorf("final v=%q, want 50", got)
	}
}

// TestCommitHookBlocksNoReader parks the durability hook mid-group — a
// slow disk, a long fsync — and checks who waits. Readers do not: a new
// snapshot opens and reads, seeing the state before the transaction,
// because the group is logged before it is published. Writers and
// Quiesce (a checkpoint) do: they run only after the commit finishes,
// so a checkpoint still captures state and log at a group boundary.
func TestCommitHookBlocksNoReader(t *testing.T) {
	s := New()
	id, _ := s.MergeNode("T", "a", nil)
	entered, release := make(chan struct{}), make(chan struct{})
	var logged []MutationOp
	s.SetMutationHook(func(m Mutation) {
		if m.Op == OpTxBegin {
			close(entered)
			<-release
		}
		logged = append(logged, m.Op)
	})

	tx := s.BeginTx()
	tx.SetAttr(id, "k", "v")
	tx.MergeNode("T", "b", nil)
	committed := make(chan error, 1)
	go func() { committed <- tx.Commit() }()
	<-entered

	read := make(chan string, 1)
	go func() {
		sn := s.Snapshot()
		defer sn.Release()
		read <- fmt.Sprint(sn.Node(id).Attrs.Get("k"), len(sn.NodeIDsByType("T")), s.CountNodes())
	}()
	quiesced := make(chan int, 1)
	go s.Quiesce(func() error { quiesced <- len(logged); return nil })
	wrote := make(chan struct{})
	go func() { setAttr(s, id, "bare", "1"); close(wrote) }()

	// The read completes while the hook is parked: pre-transaction attrs
	// and label count through the snapshot, while the latest-state
	// counter (a plain read-lock read) is already at two.
	if got := <-read; got != fmt.Sprint("", 1, 2) {
		t.Errorf("snapshot read during a parked commit saw %q, want %q", got, fmt.Sprint("", 1, 2))
	}
	select {
	case n := <-quiesced:
		t.Fatalf("Quiesce ran inside a commit, with %d of its records logged", n)
	case <-wrote:
		t.Fatal("a bare write ran inside a commit")
	case err := <-committed:
		t.Fatalf("Commit returned (%v) with its hook parked", err)
	default:
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if n := <-quiesced; n < 4 {
		t.Errorf("Quiesce saw %d logged records, want the whole group (4) or more", n)
	}
	<-wrote
	want := []MutationOp{OpTxBegin, OpSetAttr, OpMergeNode, OpTxCommit, OpSetAttr}
	if fmt.Sprint(logged) != fmt.Sprint(want) {
		t.Errorf("logged %v, want %v", logged, want)
	}
	sn := s.Snapshot()
	defer sn.Release()
	if got := sn.Node(id).Attrs.Get("k"); got != "v" {
		t.Errorf("after the commit a snapshot reads k=%q, want v", got)
	}
}

// TestSnapshotReleaseRacesWriters: snapshots open and close under the
// shared lock, beside transactions and bare writes taking the exclusive
// one, and only the close that leaves unobservable history purges it.
// Whatever the interleaving, a snapshot reads the same committed state
// for as long as it is open (every key of a transaction equal, a bare
// key unchanged between two passes), a snapshot closed twice — even from
// two goroutines at once — counts once, and when the last reader and
// writer are gone no snapshot count or version history is left behind.
func TestSnapshotReleaseRacesWriters(t *testing.T) {
	s := New()
	const keys = 6
	ids := make([]NodeID, keys)
	for i := range ids {
		ids[i], _ = s.MergeNode("K", fmt.Sprintf("k%d", i), map[string]string{"v": "0", "bare": "0"})
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				var pass [2]string
				for p := range pass {
					first := sn.Node(ids[0]).Attrs.Get("v")
					for _, id := range ids {
						nd := sn.Node(id)
						if got := nd.Attrs.Get("v"); got != first {
							t.Errorf("torn read: node %d has v=%q, the first had %q", id, got, first)
						}
						pass[p] += nd.Attrs.Get("v") + "/" + nd.Attrs.Get("bare") + " "
					}
					runtime.Gosched()
				}
				if pass[0] != pass[1] {
					t.Errorf("one snapshot read two states:\n%s\n%s", pass[0], pass[1])
				}
				if n%3 == r%3 {
					twice := make(chan struct{})
					go func() { sn.Release(); close(twice) }()
					sn.Release()
					<-twice
				}
				sn.Release()
				if c := s.snaps.Load(); c < 0 {
					t.Errorf("snapshot count fell to %d", c)
					return
				}
			}
		}(r)
	}
	writers.Add(2)
	go func() { // transactions: odd rounds roll back
		defer writers.Done()
		for round := 1; round <= 800; round++ {
			tx := s.BeginTx()
			for _, id := range ids {
				if _, err := tx.SetAttr(id, "v", fmt.Sprint(round)); err != nil {
					t.Error(err)
				}
			}
			if round%2 == 1 {
				tx.Rollback()
			} else if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // bare writes, each its own commit
		defer writers.Done()
		for round := 1; round <= 8000; round++ {
			if err := setAttr(s, ids[round%keys], "bare", fmt.Sprint(round)); err != nil {
				t.Error(err)
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := latest(t, s, func(sn *Snap) *Node { return sn.Node(ids[0]) }).Attrs.Get("v"); got != "800" {
		t.Errorf("final v=%q, want 800", got)
	}
	if st := s.MVCCStats(); st != (MVCCStats{}) {
		t.Errorf("history left behind with nobody to observe it: %+v", st)
	}
}

// TestTxSnapReleaseIsNoop holds the guard on a transaction's own view: a
// reader that releases tx.Snap() as it would a plain snapshot must not
// end the view early. The transaction still reads its own writes, and
// Commit still ends the view and drops the history it kept.
func TestTxSnapReleaseIsNoop(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("T", "a", nil)
	tx := s.BeginTx()
	if _, err := tx.SetAttr(a, "k", "v"); err != nil {
		t.Fatal(err)
	}
	tx.Snap().Release()
	if got := tx.Snap().Node(a).Attrs.Get("k"); got != "v" {
		t.Errorf("after Release the tx reads k=%q, want its own write v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := s.MVCCStats(); st != (MVCCStats{}) {
		t.Errorf("history left behind after commit: %+v", st)
	}
}

// TestTxWriteEffects: each Tx write reports what it did — the record it
// left, whether it created it, the attributes it added or changed, the
// distinct edges a node delete took along — and refuses a gone target
// (ErrGone) or an attached node without detach (*AttachedError) before
// anything changes or is logged.
func TestTxWriteEffects(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("Tool", "a", map[string]string{"k": "1"})
	b, _ := s.MergeNode("Tool", "b", nil)
	s.AddEdge(a, "USE", b, nil)
	s.AddEdge(a, "SELF", a, nil)
	var logged []MutationOp
	s.SetMutationHook(func(m Mutation) { logged = append(logged, m.Op) })
	tx := s.BeginTx()
	defer tx.Rollback()

	if ef := tx.MergeNode("Tool", "a", map[string]string{"k": "2", "x": "1", "y": "1"}); ef.Created || ef.Attrs != 2 || ef.Node.ID != a || ef.Node.Attrs.Get("k") != "1" {
		t.Errorf("merge hit: %+v, want node %d keeping k=1 and 2 attributes added", ef, a)
	}
	if ef := tx.MergeNode("Tool", "c", map[string]string{"x": "1"}); !ef.Created || ef.Node.Name != "c" {
		t.Errorf("merge miss: %+v, want a created node c", ef)
	}
	if ef, err := tx.AddEdge(a, "USE", b, map[string]string{"w": "1"}); err != nil || ef.Created || ef.Attrs != 1 || ef.Edge.Attrs.Get("w") != "1" {
		t.Errorf("edge hit: %+v, %v; want the edge augmented by 1 attribute", ef, err)
	}
	for _, val := range []string{"1", "3"} {
		ef, err := tx.SetAttr(a, "k", val)
		if want := map[string]int{"1": 0, "3": 1}[val]; err != nil || ef.Attrs != want || ef.Node.Attrs.Get("k") != val {
			t.Errorf("SET k=%s: %+v, %v; want %d changed and the record holding it", val, ef, err, want)
		}
	}
	before, n := saveBytesOf(t, s), len(tx.walBuf)
	var attached *AttachedError
	if _, err := tx.DeleteNode(a, false); !errors.As(err, &attached) || attached.Edges != 2 {
		t.Errorf("delete without detach: %v, want an *AttachedError counting 2 edges (the self-loop once)", err)
	}
	if !bytes.Equal(saveBytesOf(t, s), before) || len(tx.walBuf) != n {
		t.Error("a refused delete changed the store or buffered a mutation")
	}
	if ef, err := tx.DeleteNode(a, true); err != nil || ef.Edges != 2 {
		t.Errorf("detach delete: %+v, %v; want 2 edges deleted", ef, err)
	}
	for _, err := range []error{
		func() error { _, err := tx.SetAttr(a, "k", "4"); return err }(),
		func() error { _, err := tx.DeleteNode(a, true); return err }(),
		func() error { _, err := tx.AddEdge(b, "USE", a, nil); return err }(),
		tx.DeleteEdge(1),
		tx.MigrateEdges(a, b),
	} {
		if !errors.Is(err, ErrGone) {
			t.Errorf("write naming a deleted target: %v, want ErrGone", err)
		}
	}
	if len(logged) != 0 {
		t.Errorf("an open transaction reached the hook: %v", logged)
	}
}

// TestTxMethodSet pins a transaction's exported surface: its writes, the
// one dispatch over them, its view and its end. There is no read of the
// latest state: every read goes through Snap, and what a write did comes
// back from the write itself (Effect), so nothing reads behind the view.
func TestTxMethodSet(t *testing.T) {
	want := []string{"AddEdge", "Apply", "Commit", "DeleteEdge", "DeleteNode", "MergeNode", "MigrateEdges", "Rollback", "SetAttr", "Snap"}
	typ := reflect.TypeOf(&Tx{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*graph.Tx exports %v, want exactly %v", got, want)
	}
}
