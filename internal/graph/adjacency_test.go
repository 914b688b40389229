package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkIncidence verifies IncidentEdges against the ground truth of the
// edge records themselves, for every node, direction, and live edge type.
func checkIncidence(t *testing.T, s *Store) {
	t.Helper()
	type half struct {
		id    EdgeID
		other NodeID
		typ   string
	}
	truthOut := map[NodeID][]half{}
	truthIn := map[NodeID][]half{}
	types := map[string]bool{"": true}
	for _, rec := range s.edges {
		if e := rec.e; e != nil {
			truthOut[e.From] = append(truthOut[e.From], half{e.ID, e.To, e.Type})
			truthIn[e.To] = append(truthIn[e.To], half{e.ID, e.From, e.Type})
			types[e.Type] = true
		}
	}
	latest(t, s, func(sn *Snap) bool {
		var buf []IncidentEdge
		sn.ForEachNode(func(n *Node) bool {
			for typ := range types {
				for _, dir := range []Direction{Out, In, Both} {
					var want []half
					if dir == Out || dir == Both {
						want = append(want, truthOut[n.ID]...)
					}
					if dir == In || dir == Both {
						want = append(want, truthIn[n.ID]...)
					}
					if typ != "" {
						filtered := want[:0:0]
						for _, h := range want {
							if h.typ == typ {
								filtered = append(filtered, h)
							}
						}
						want = filtered
					}
					buf = sn.IncidentEdges(buf[:0], n.ID, dir, typ)
					if len(buf) != len(want) {
						t.Fatalf("node %d dir %d type %q: got %d incidences, want %d",
							n.ID, dir, typ, len(buf), len(want))
					}
					got := append([]IncidentEdge{}, buf...)
					sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
					sort.Slice(want, func(i, j int) bool { return want[i].id < want[j].id })
					for i, h := range want {
						if got[i].ID != h.id || got[i].Other != h.other || got[i].Type != h.typ {
							t.Fatalf("node %d dir %d type %q [%d]: got %+v, want %+v",
								n.ID, dir, typ, i, got[i], h)
						}
					}
				}
			}
			return true
		})
		return true
	})
}

// TestIncidentEdgesOrdering locks down the documented iteration contract:
// ascending edge IDs within one direction, out block before in block for
// Both, and a self-loop visible once per direction.
func TestIncidentEdgesOrdering(t *testing.T) {
	s := New()
	a, _ := s.MergeNode("T", "a", nil)
	b, _ := s.MergeNode("T", "b", nil)
	c, _ := s.MergeNode("T", "c", nil)
	e1, _, _ := s.AddEdge(a, "x", b, nil)
	e2, _, _ := s.AddEdge(c, "x", a, nil)
	e3, _, _ := s.AddEdge(a, "y", a, nil) // self-loop
	e4, _, _ := s.AddEdge(a, "x", c, nil)

	out := latest(t, s, func(sn *Snap) []IncidentEdge { return sn.IncidentEdges(nil, a, Out, "") })
	wantOut := []EdgeID{e1, e3, e4}
	if len(out) != len(wantOut) {
		t.Fatalf("out: got %d edges, want %d", len(out), len(wantOut))
	}
	for i, id := range wantOut {
		if out[i].ID != id {
			t.Fatalf("out[%d] = %d, want %d (ascending order)", i, out[i].ID, id)
		}
	}
	both := latest(t, s, func(sn *Snap) []IncidentEdge { return sn.IncidentEdges(nil, a, Both, "") })
	wantBoth := []EdgeID{e1, e3, e4, e2, e3} // out block asc, then in block asc
	if len(both) != len(wantBoth) {
		t.Fatalf("both: got %d edges, want %d", len(both), len(wantBoth))
	}
	for i, id := range wantBoth {
		if both[i].ID != id {
			t.Fatalf("both[%d] = %d, want %d", i, both[i].ID, id)
		}
	}
	typed := latest(t, s, func(sn *Snap) []IncidentEdge { return sn.IncidentEdges(nil, a, Out, "y") })
	if len(typed) != 1 || typed[0].ID != e3 || typed[0].Other != a {
		t.Fatalf("type filter: got %+v", typed)
	}
	if unknown := latest(t, s, func(sn *Snap) []IncidentEdge { return sn.IncidentEdges(nil, a, Both, "nosuchtype") }); len(unknown) != 0 {
		t.Fatalf("unknown type matched %d edges", len(unknown))
	}
}

// TestAdjacencyUnderMutation drives the store through enough randomized
// add/delete/migrate churn to cross several CSR rebuilds, checking the
// full incidence contract before and after each phase, and finally
// through a save/load cycle (the bulk rebuild path).
func TestAdjacencyUnderMutation(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(42))
	var nodes []NodeID
	for i := 0; i < 40; i++ {
		id, _ := s.MergeNode("N", fmt.Sprintf("n%d", i), nil)
		nodes = append(nodes, id)
	}
	types := []string{"a", "b", "c"}
	var edges []EdgeID
	// Enough adds to push pending past the rebuild threshold repeatedly.
	for i := 0; i < 600; i++ {
		from := nodes[rng.Intn(len(nodes))]
		to := nodes[rng.Intn(len(nodes))]
		if id, created, err := s.AddEdge(from, types[rng.Intn(len(types))], to, nil); err != nil {
			t.Fatal(err)
		} else if created {
			edges = append(edges, id)
		}
		if len(edges) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(edges))
			if err := deleteEdge(s, edges[i]); err == nil {
				edges = append(edges[:i], edges[i+1:]...)
			}
		}
	}
	checkIncidence(t, s)

	// Node deletion sweeps incident edges through the tombstone path.
	for i := 0; i < 5; i++ {
		if err := deleteNode(s, nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkIncidence(t, s)

	// MigrateEdges deletes and re-adds with fresh IDs.
	if err := migrateEdges(s, nodes[10], nodes[20]); err != nil {
		t.Fatal(err)
	}
	checkIncidence(t, s)

	// Bulk-load rebuild path must agree with the incremental one.
	var data bytes.Buffer
	if err := s.SaveBinary(&data); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&data)
	if err != nil {
		t.Fatal(err)
	}
	checkIncidence(t, loaded)
}
