package connector

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"securitykg/internal/ctirep"
	"securitykg/internal/graph"
	"securitykg/internal/ontology"
	"securitykg/internal/replication"
	"securitykg/internal/storage"
)

// A report is one commit group: these tests hold the graph connector to
// it where a half-connected report would show — a log cut at any byte,
// and readers on a leader and its follower while reports land.

var durable = storage.Options{Sync: storage.SyncNever, CompactBytes: -1}

// sampleReports builds n reports with distinct titles over small shared
// entity pools, so later reports both add nodes and merge into earlier
// ones. Every entity and relation is schema-valid.
func sampleReports(t testing.TB, n int) []*ctirep.CTIRep {
	t.Helper()
	malware := []string{"WannaCry", "Emotet", "TrickBot", "Ryuk", "Dridex", "Qakbot", "Zeus"}
	actors := []string{"APT28", "Lazarus", "FIN7"}
	tools := []string{"Mimikatz", "PsExec", "CobaltStrike", "AdFind"}
	vendors := []string{"AcmeSec", "Blue Team Labs", "CyberWatch"}
	reps := make([]*ctirep.CTIRep, n)
	for i := range reps {
		m := ontology.Entity{Type: ontology.TypeMalware, Name: malware[i%len(malware)]}
		ip := ontology.Entity{Type: ontology.TypeIP, Name: fmt.Sprintf("10.0.%d.%d", i%5, i%11)}
		actor := ontology.Entity{Type: ontology.TypeThreatActor, Name: actors[i%len(actors)]}
		tool := ontology.Entity{Type: ontology.TypeTool, Name: tools[i%len(tools)]}
		r := &ctirep.CTIRep{
			ReportID: fmt.Sprintf("r%d", i),
			Title:    fmt.Sprintf("Report %d: %s", i, m.Name),
			Vendor:   vendors[i%len(vendors)],
			Kind:     "malware",
			Entities: []ontology.Entity{m, ip, actor, tool},
			Relations: []ontology.Relation{
				{Src: m, Type: ontology.RelConnectsTo, Dst: ip},
				{Src: m, Type: ontology.RelAttributedTo, Dst: actor},
				{Src: actor, Type: ontology.RelUses, Dst: tool},
			},
		}
		for _, rel := range r.Relations {
			if err := rel.Validate(); err != nil {
				t.Fatalf("fixture relation: %v", err)
			}
		}
		reps[i] = r
	}
	return reps
}

func saveOf(t testing.TB, st *graph.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.Save(&b); err != nil {
		t.Fatalf("save: %v", err)
	}
	return b.Bytes()
}

// TestConnectTornTailEveryOffset connects reports into a durable store,
// then cuts its log at every byte offset (every 13th under -short):
// recovery must hold whole reports only — the store a fresh in-memory
// connector builds from the first k reports, for some k that never falls
// as the cut moves on, and all of them for the whole log.
func TestConnectTornTailEveryOffset(t *testing.T) {
	reps := sampleReports(t, 40)
	dir := t.TempDir()
	db, err := storage.Open(dir, durable)
	if err != nil {
		t.Fatal(err)
	}
	gc := NewGraphConnector(db.Store(), nil)
	for _, r := range reps {
		if err := gc.Connect(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	// The oracle: the Save stream after each whole-report prefix.
	ref := graph.New()
	rc := NewGraphConnector(ref, nil)
	prefix := map[string]int{string(saveOf(t, ref)): 0}
	for k, r := range reps {
		if err := rc.Connect(r); err != nil {
			t.Fatal(err)
		}
		prefix[string(saveOf(t, ref))] = k + 1
	}

	step := 1
	if testing.Short() {
		step = 13
	}
	// One directory serves every cut: recovery writes no snapshot, so
	// rewriting the log resets it.
	sub := t.TempDir()
	lastK := 0
	for cut := 0; cut < len(wal)+step; cut += step {
		cut = min(cut, len(wal))
		if err := os.WriteFile(filepath.Join(sub, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := storage.Open(sub, durable)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got := saveOf(t, rdb.Store())
		rdb.Close()
		k, whole := prefix[string(got)]
		if !whole {
			t.Fatalf("cut=%d of %d: the recovered store holds part of a report", cut, len(wal))
		}
		if k < lastK {
			t.Fatalf("cut=%d: recovered %d whole reports, fewer than the %d an earlier cut kept", cut, k, lastK)
		}
		lastK = k
	}
	if lastK != len(reps) {
		t.Fatalf("the whole log recovered %d reports, want %d", lastK, len(reps))
	}
	t.Logf("%d-byte log, every %d bytes cut: whole reports only", len(wal), step)
}

// TestConnectWholeReportsVisible runs two connect workers against a
// durable leader with a tailing follower while two readers loop over both
// stores: one through snapshots, one walking the newest node IDs one hop
// with ExpandFrom, as the UI's expand does. Every report node either shows
// must already carry all of its report's out-edges (titles are distinct,
// so each report has its own node), and the two stores must end
// byte-identical.
func TestConnectWholeReportsVisible(t *testing.T) {
	reps := sampleReports(t, 300)
	ref := graph.New()
	rc := NewGraphConnector(ref, nil)
	for _, r := range reps {
		if err := rc.Connect(r); err != nil {
			t.Fatal(err)
		}
	}
	wantOut := map[string]int{}
	refSnap := ref.Snapshot()
	for _, r := range reps {
		wantOut[r.Title] = len(refSnap.Edges(refSnap.FindNode(string(ontology.TypeMalwareReport), r.Title).ID, graph.Out))
	}
	refSnap.Release()

	ldb, err := storage.Open(t.TempDir(), durable)
	if err != nil {
		t.Fatal(err)
	}
	defer ldb.Close()
	mux := http.NewServeMux()
	(&replication.Leader{DB: ldb, HeartbeatEvery: 10 * time.Millisecond}).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fdir := t.TempDir()
	if err := replication.Bootstrap(ctx, fdir, srv.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	fdb, err := storage.Open(fdir, durable)
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	repl := replication.NewReplicator(fdb, srv.URL)
	replDone := make(chan error, 1)
	go func() { replDone <- repl.Run(ctx) }()

	stores := map[string]*graph.Store{"leader": ldb.Store(), "follower": fdb.Store()}
	stop := make(chan struct{})
	readerDone, reading := make(chan struct{}), make(chan struct{})
	walkerDone := make(chan struct{})
	go func() {
		defer close(walkerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for name, st := range stores {
				top := graph.NodeID(st.Stats().Nodes) // no deletes: IDs 1..top are live
				for id := max(1, top-64); id <= top; id++ {
					sg := st.ExpandFrom([]graph.NodeID{id}, 1, 1000, 1000)
					if len(sg.Nodes) == 0 || sg.Nodes[0].Type != string(ontology.TypeMalwareReport) {
						continue
					}
					got := 0
					for _, e := range sg.Edges {
						if e.From == id {
							got++
						}
					}
					if want := wantOut[sg.Nodes[0].Name]; got != want {
						t.Errorf("%s: ExpandFrom showed report %q with %d of its %d out-edges", name, sg.Nodes[0].Name, got, want)
						return
					}
				}
			}
		}
	}()
	go func() {
		defer close(readerDone)
		close(reading)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for name, st := range stores {
				sn := st.Snapshot()
				for _, id := range sn.NodeIDsByType(string(ontology.TypeMalwareReport)) {
					n := sn.Node(id)
					if got, want := len(sn.Edges(id, graph.Out)), wantOut[n.Name]; got != want {
						t.Errorf("%s: a reader saw report %q with %d of its %d out-edges", name, n.Name, got, want)
						sn.Release()
						return
					}
				}
				sn.Release()
			}
		}
	}()

	<-reading
	gc := NewGraphConnector(ldb.Store(), nil)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reps); i += 2 {
				if err := gc.Connect(reps[i]); err != nil {
					t.Errorf("connect %s: %v", reps[i].ReportID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	err = repl.WaitApplied(wctx, ldb.CommittedSeq())
	wcancel()
	close(stop)
	<-readerDone
	<-walkerDone
	cancel()
	if rerr := <-replDone; rerr != nil {
		t.Errorf("replicator: %v", rerr)
	}
	if err != nil {
		t.Fatalf("follower never caught up: %v", err)
	}
	if !bytes.Equal(saveOf(t, ldb.Store()), saveOf(t, fdb.Store())) {
		t.Fatal("follower state differs from leader")
	}
	for name, st := range stores {
		sn := st.Snapshot()
		if got := len(sn.NodeIDsByType(string(ontology.TypeMalwareReport))); got != len(reps) {
			t.Errorf("%s holds %d reports, want %d", name, got, len(reps))
		}
		sn.Release()
	}
}
