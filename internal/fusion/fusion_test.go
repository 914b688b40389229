package fusion

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"securitykg/internal/graph"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"WannaCry":              "wannacry",
		"WANNACRY":              "wannacry",
		"W32/WannaCry":          "wannacry",
		"Ransom.Win32.WannaCry": "wannacry",
		"Trojan.Emotet":         "emotet",
		"Agent Tesla":           "agenttesla",
		"agent-tesla":           "agenttesla",
		"  Spaced Out  ":        "spacedout",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func buildAliasGraph(t *testing.T) (*graph.Store, graph.NodeID, graph.NodeID, graph.NodeID) {
	t.Helper()
	s := graph.New()
	canon, _ := s.MergeNode("Malware", "WannaCry", map[string]string{"seen": "2017"})
	v1, _ := s.MergeNode("Malware", "W32/WannaCry", map[string]string{"av": "vendor1"})
	v2, _ := s.MergeNode("Malware", "WANNACRY", nil)
	ip, _ := s.MergeNode("IP", "9.9.9.9", nil)
	dom, _ := s.MergeNode("Domain", "kill.sw", nil)
	rep, _ := s.MergeNode("MalwareReport", "r1", nil)
	rep2, _ := s.MergeNode("MalwareReport", "r2", nil)
	mustEdge(t, s, canon, "CONNECT", ip)
	mustEdge(t, s, canon, "CONNECT", dom)
	mustEdge(t, s, v1, "CONNECT", ip) // duplicate edge via alias
	mustEdge(t, s, rep, "DESCRIBES", v1)
	mustEdge(t, s, rep2, "DESCRIBES", v2)
	return s, canon, v1, v2
}

func mustEdge(t *testing.T, s *graph.Store, a graph.NodeID, rel string, b graph.NodeID) {
	t.Helper()
	if _, _, err := s.AddEdge(a, rel, b, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFuseMergesAliasGroup(t *testing.T) {
	s, canon, v1, v2 := buildAliasGraph(t)
	st, err := Fuse(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 1 || st.NodesMerged != 2 {
		t.Fatalf("stats: %+v", st)
	}
	sn := s.Snapshot()
	defer sn.Release()
	if sn.Node(v1) != nil || sn.Node(v2) != nil {
		t.Error("alias nodes should be deleted")
	}
	n := sn.Node(canon)
	if n == nil {
		t.Fatal("canonical node gone")
	}
	// Aliases recorded.
	if n.Attrs.Get("aliases") != "W32/WannaCry|WANNACRY" {
		t.Errorf("aliases attr: %q", n.Attrs.Get("aliases"))
	}
	// Attributes unified (first writer wins, new keys adopted).
	if n.Attrs.Get("seen") != "2017" || n.Attrs.Get("av") != "vendor1" {
		t.Errorf("attrs not unified: %+v", n.Attrs)
	}
}

func TestFuseMigratesAllEdgesWithoutLoss(t *testing.T) {
	s, canon, _, _ := buildAliasGraph(t)
	before := s.Stats()
	st, err := Fuse(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Edge count may shrink only due to dedup (v1->ip duplicated canon->ip).
	if st.EdgesBefore != before.Edges {
		t.Errorf("EdgesBefore %d vs %d", st.EdgesBefore, before.Edges)
	}
	// Both reports must now describe the canonical node: no information
	// lost, only unified.
	sn := s.Snapshot()
	defer sn.Release()
	ins := sn.Edges(canon, graph.In)
	if len(ins) != 2 {
		t.Fatalf("canonical in-edges: %+v", ins)
	}
	outs := sn.Edges(canon, graph.Out)
	if len(outs) != 2 { // CONNECT ip (deduped), CONNECT dom
		t.Fatalf("canonical out-edges: %+v", outs)
	}
}

func TestFuseChoosesHighestDegreeCanonical(t *testing.T) {
	s := graph.New()
	// The alias (inserted first) has more edges: it must win.
	popular, _ := s.MergeNode("Malware", "W32/Emotet", nil)
	lonely, _ := s.MergeNode("Malware", "Emotet", nil)
	for i := 0; i < 3; i++ {
		ip, _ := s.MergeNode("IP", string(rune('a'+i))+".ip", nil)
		mustEdge(t, s, popular, "CONNECT", ip)
	}
	if _, err := Fuse(s, Options{}); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	if sn.Node(popular) == nil {
		t.Error("high-degree node should be canonical")
	}
	if sn.Node(lonely) != nil {
		t.Error("low-degree duplicate should be merged away")
	}
}

func TestFuseTypeFilter(t *testing.T) {
	s := graph.New()
	s.MergeNode("Malware", "Ryuk", nil)
	s.MergeNode("Malware", "RYUK", nil)
	s.MergeNode("Tool", "PsExec", nil)
	s.MergeNode("Tool", "psexec", nil)
	st, err := Fuse(s, Options{Types: []string{"Tool"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 1 {
		t.Fatalf("type filter ignored: %+v", st)
	}
	sn := s.Snapshot()
	defer sn.Release()
	if got := len(sn.NodesByType("Malware")); got != 2 {
		t.Errorf("malware should be untouched: %d nodes", got)
	}
	if got := len(sn.NodesByType("Tool")); got != 1 {
		t.Errorf("tools should be fused: %d nodes", got)
	}
}

func TestFuseNoFalseMerges(t *testing.T) {
	s := graph.New()
	s.MergeNode("Malware", "Petya", nil)
	s.MergeNode("Malware", "NotPetya", nil) // different normalized names
	s.MergeNode("Malware", "Ryuk", nil)
	s.MergeNode("Tool", "Ryuk", nil) // same name, different type: no merge
	st, err := Fuse(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 0 || st.NodesMerged != 0 {
		t.Errorf("false merges: %+v", st)
	}
	if s.Stats().Nodes != 4 {
		t.Errorf("nodes lost: %+v", s.Stats())
	}
}

func TestFuseIdempotent(t *testing.T) {
	s, _, _, _ := buildAliasGraph(t)
	if _, err := Fuse(s, Options{}); err != nil {
		t.Fatal(err)
	}
	mid := s.Stats()
	st2, err := Fuse(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.NodesMerged != 0 {
		t.Errorf("second pass merged again: %+v", st2)
	}
	if after := s.Stats(); after.Nodes != mid.Nodes || after.Edges != mid.Edges {
		t.Errorf("second pass changed the graph: %+v vs %+v", mid, after)
	}
}

func TestFuseEmptyStore(t *testing.T) {
	s := graph.New()
	st, err := Fuse(s, Options{})
	if err != nil || st.Groups != 0 {
		t.Errorf("empty store: %+v err=%v", st, err)
	}
}

// TestFuseIsOneCommitGroup: a fusion pass is one transaction, so the
// durability hook sees its mutations wrapped in exactly one
// tx_begin/tx_commit pair, and the fused store saves to the bytes the
// pass wrote when each of its mutations committed on its own.
func TestFuseIsOneCommitGroup(t *testing.T) {
	s, _, _, _ := buildAliasGraph(t)
	var ops []graph.MutationOp
	s.SetMutationHook(func(m graph.Mutation) { ops = append(ops, m.Op) })
	if _, err := Fuse(s, Options{}); err != nil {
		t.Fatal(err)
	}
	begins, commits := 0, 0
	for _, op := range ops {
		switch op {
		case graph.OpTxBegin:
			begins++
		case graph.OpTxCommit:
			commits++
		}
	}
	if len(ops) < 3 || ops[0] != graph.OpTxBegin || ops[len(ops)-1] != graph.OpTxCommit || begins != 1 || commits != 1 {
		t.Errorf("hook saw %v; want one tx_begin ... tx_commit group around the pass", ops)
	}
	var b bytes.Buffer
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	const want = "f0048970c09b53cff0535d331daea9ba6ca5ab27caa163b14ace2464954ee500"
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != want {
		t.Errorf("fused store's Save SHA-256 %s, want %s:\n%s", got, want, b.String())
	}
}
