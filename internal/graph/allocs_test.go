//go:build !race

// Allocation regression guards. AllocsPerRun numbers are meaningless
// under the race detector (it instruments allocations), so these run in
// the plain-build test pass `make test` adds alongside the -race suite.

package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestIncidentEdgesAllocs locks down the zero-allocation contract of the
// CSR incidence iteration the query executor's expand stages sit on: a
// caller-reused buffer means steady-state traversal through a snapshot
// never allocates.
func TestIncidentEdgesAllocs(t *testing.T) {
	s := New()
	hub, _ := s.MergeNode("Malware", "hub", nil)
	for i := 0; i < 200; i++ {
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		s.AddEdge(hub, "CONNECT", ip, nil)
		if i%3 == 0 {
			s.AddEdge(ip, "RESOLVE", hub, nil)
		}
	}
	sn := s.Snapshot()
	defer sn.Release()
	buf := make([]IncidentEdge, 0, 512)
	for _, tc := range []struct {
		name string
		dir  Direction
		typ  string
	}{
		{"out-typed", Out, "CONNECT"},
		{"in-typed", In, "RESOLVE"},
		{"both-all", Both, ""},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			buf = sn.IncidentEdges(buf[:0], hub, tc.dir, tc.typ)
		})
		if allocs > 0 {
			t.Errorf("%s: IncidentEdges allocates %.1f/op with a warm buffer, want 0", tc.name, allocs)
		}
	}
}

// residentKG builds a graph shaped like the ledger's kg-100k at a fifth
// of its size: 20 000 nodes across five labels, each with one or two
// attributes, and 70 000 attribute-less edges onto hub-skewed targets.
func residentKG() *Store {
	rng := rand.New(rand.NewSource(1))
	s := New()
	s.Reserve(20000, 70000)
	s.BeginBulk()
	defer s.EndBulk()
	labels := []string{"IP", "IP", "Domain", "MalwareReport", "MalwareReport", "Malware", "FileHash"}
	ids := make([]NodeID, 20000)
	for i := range ids {
		label := labels[i%len(labels)]
		attrs := map[string]string{"first_seen": "2021"}
		if label == "MalwareReport" {
			attrs = map[string]string{"report_id": fmt.Sprint("rid-", i), "published": fmt.Sprintf("2021-%02d-%02d", 1+i%12, 1+i%28)}
		}
		ids[i], _ = s.MergeNode(label, fmt.Sprintf("%s-%d", label, i), attrs)
	}
	zipf := rand.NewZipf(rng, 1.1, 50, uint64(len(ids)-1))
	types := []string{"MENTIONS", "CONNECT", "DESCRIBES"}
	for edges := 0; edges < 70000; {
		if _, created, _ := s.AddEdge(ids[rng.Intn(len(ids))], types[rng.Intn(len(types))], ids[zipf.Uint64()], nil); created {
			edges++
		}
	}
	return s
}

// TestResidentBytesPerNode pins what the graph costs to keep: the live
// heap a kg-shaped store holds after a forced GC, per node (edges,
// adjacency and every index included). The map-of-hash-sets
// representation measured 1 740 B/node here; slabs, chunked postings
// and slice attrs measure 1 060. The ceiling sits some 11 % above that.
func TestResidentBytesPerNode(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	s := residentKG()
	perNode := float64(live()-before) / float64(s.CountNodes())
	runtime.KeepAlive(s)
	t.Logf("%.0f B/node resident (%d nodes, %d edges)", perNode, s.CountNodes(), s.Stats().Edges)
	const ceiling = 1180
	if perNode > ceiling {
		t.Errorf("resident graph costs %.0f B/node, ceiling %d", perNode, ceiling)
	}
}

// TestLabelScanAllocs: an index read through a snapshot of a store with no
// version history is one copy of an already-ordered posting — one
// allocation, nothing to collect or sort.
func TestLabelScanAllocs(t *testing.T) {
	s := residentKG()
	snap := s.Snapshot()
	defer snap.Release()
	for name, scan := range map[string]func() []NodeID{
		"Snap.NodeIDsByType": func() []NodeID { return snap.NodeIDsByType("IP") },
		"Snap.NodeIDsByName": func() []NodeID { return snap.NodeIDsByName("IP-7") },
	} {
		if ids := scan(); len(ids) == 0 || !slices.IsSorted(ids) {
			t.Fatalf("%s returned %d ids, sorted=%v", name, len(ids), slices.IsSorted(ids))
		}
		if allocs := testing.AllocsPerRun(20, func() { scan() }); allocs > 1 {
			t.Errorf("%s allocates %.1f/op, want at most 1", name, allocs)
		}
	}
}
