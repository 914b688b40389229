package graph

import (
	"fmt"
	"testing"
)

// TestApplyBatchSingleWALGroup: a batch applies as ONE write-ahead-log
// transaction group — a single tx_begin/tx_commit pair around the
// mutations, not a bare record per mutation — and moves the planner
// stats version at most once, however large the batch.
func TestApplyBatchSingleWALGroup(t *testing.T) {
	s := New()
	var log []MutationOp
	s.SetMutationHook(func(m Mutation) { log = append(log, m.Op) })

	const n = 200
	ms := make([]Mutation, 0, n)
	for i := 0; i < n; i++ {
		ms = append(ms, Mutation{Op: OpMergeNode, Type: "Host", Name: fmt.Sprintf("h%d", i)})
	}
	sv0 := s.StatsVersion()
	applied, err := s.ApplyBatch(ms)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if applied != n {
		t.Fatalf("applied = %d, want %d", applied, n)
	}

	if len(log) != n+2 || log[0] != OpTxBegin || log[len(log)-1] != OpTxCommit {
		t.Fatalf("log has %d records, first %q last %q; want %d wrapped in tx_begin/tx_commit",
			len(log), log[0], log[len(log)-1], n+2)
	}
	begins, commits := 0, 0
	for _, op := range log {
		switch op {
		case OpTxBegin:
			begins++
		case OpTxCommit:
			commits++
		}
	}
	if begins != 1 || commits != 1 {
		t.Errorf("tx markers: %d begins, %d commits; want exactly one group", begins, commits)
	}
	// 200 nodes from empty is unquestionably material — but it is ONE
	// judgement, at commit, not 200.
	if bumps := s.StatsVersion() - sv0; bumps != 1 {
		t.Errorf("StatsVersion moved %d times during batch, want exactly 1", bumps)
	}
	if got := s.CountNodes(); got != n {
		t.Errorf("CountNodes = %d, want %d", got, n)
	}
}

// TestApplyBatchAtomic: a batch containing a failing mutation rolls the
// whole batch back — nothing reaches the store or the WAL hook, and the
// failing index is reported.
func TestApplyBatchAtomic(t *testing.T) {
	s := New()
	var log []MutationOp
	s.SetMutationHook(func(m Mutation) { log = append(log, m.Op) })

	ms := []Mutation{
		{Op: OpMergeNode, Type: "Host", Name: "good"},
		{Op: OpSetAttr, Node: NodeID(1 << 30), Key: "k", Val: "v"}, // no such node
		{Op: OpMergeNode, Type: "Host", Name: "never"},
	}
	idx, err := s.ApplyBatch(ms)
	if err == nil {
		t.Fatal("ApplyBatch succeeded with an invalid mutation")
	}
	if idx != 1 {
		t.Errorf("failing index = %d, want 1", idx)
	}
	if len(log) != 0 {
		t.Errorf("WAL hook observed %v after rollback, want nothing", log)
	}
	if got := s.CountNodes(); got != 0 {
		t.Errorf("CountNodes = %d after rollback, want 0", got)
	}
	if n := s.FindNode("Host", "good"); n != nil {
		t.Errorf("node %q survived the rollback", "good")
	}
}

// TestBulkBracketDefersSeal: inside a BeginBulk/EndBulk bracket the
// stats version holds still no matter how many mutations land; brackets
// nest (a bulk transaction inside a load bracket seals nothing on its
// own); closing the outermost bracket runs the single deferred
// judgement.
func TestBulkBracketDefersSeal(t *testing.T) {
	s := New()
	sv0 := s.StatsVersion()

	s.BeginBulk()
	ids := make([]NodeID, 0, 100)
	for i := 0; i < 100; i++ {
		id, _ := s.MergeNode("Host", fmt.Sprintf("h%d", i), nil)
		ids = append(ids, id)
	}
	if sv := s.StatsVersion(); sv != sv0 {
		t.Fatalf("StatsVersion moved to %d mid-bracket, want %d", sv, sv0)
	}

	// Nested bracket: a bulk transaction inside the load. Its commit
	// closes the INNER bracket only — still no seal.
	tx := s.BeginTx()
	tx.SetBulk()
	for i := 0; i < 50; i++ {
		if _, _, err := tx.AddEdge(ids[i], "talks_to", ids[i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if sv := s.StatsVersion(); sv != sv0 {
		t.Fatalf("StatsVersion moved to %d after nested commit, want %d (outer bracket still open)", sv, sv0)
	}

	s.EndBulk()
	if bumps := s.StatsVersion() - sv0; bumps != 1 {
		t.Errorf("StatsVersion moved %d times at seal, want exactly 1", bumps)
	}
	// The deferred adjacency seal must leave reads correct.
	if got := len(s.Edges(ids[0], Out)); got != 1 {
		t.Errorf("Edges(ids[0], Out) = %d, want 1", got)
	}
}
