package graph

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestViewWalksIgnoreOpenTx: the UI's walks read committed state. A
// transaction merges a node, links it to a committed node and deletes
// another committed node; while it is open, and again after it rolls
// back, ExpandFrom, RandomSubgraph and CollapseFrom — each on a snapshot
// taken at the call, as the exploration endpoints take one — return
// exactly what they returned before BeginTx.
func TestViewWalksIgnoreOpenTx(t *testing.T) {
	// hub — l0, l1, l2; l1 — l2 — l3 (a chain off the hub).
	s := New()
	hub, _ := s.MergeNode("Malware", "hub", nil)
	var l [4]NodeID
	for i := range l {
		l[i], _ = s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
	}
	for _, e := range [][2]NodeID{{hub, l[0]}, {hub, l[1]}, {hub, l[2]}, {l[1], l[2]}, {l[2], l[3]}} {
		mustEdge(t, s, e[0], "CONNECT", e[1])
	}
	view := []NodeID{hub, l[0], l[1], l[2], l[3]}
	walks := func() string {
		sn := s.Snapshot()
		defer sn.Release()
		var out []byte
		for _, v := range []any{
			s.ExpandFrom([]NodeID{hub}, 2, 25, 100),
			s.ExpandFrom([]NodeID{l[0], l[3]}, 1, 25, 100),
			sn.RandomSubgraph(7, 4),
			sn.RandomSubgraph(11, 10),
			sn.CollapseFrom(hub, view, []NodeID{l[3]}),
			sn.CollapseFrom(l[2], view, []NodeID{l[0]}),
		} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(append(out, b...), '\n')
		}
		return string(out)
	}
	before := walks()

	tx := s.BeginTx()
	x := tx.MergeNode("Host", "uncommitted", nil).Node.ID
	if _, err := tx.AddEdge(x, "SCANS", l[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteNode(l[2], true); err != nil {
		t.Fatal(err)
	}
	if got := walks(); got != before {
		t.Errorf("walks during an open transaction:\n%s\nwant (before BeginTx):\n%s", got, before)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := walks(); got != before {
		t.Errorf("walks after Rollback:\n%s\nwant (before BeginTx):\n%s", got, before)
	}
}
