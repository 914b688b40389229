package cypher

import (
	"fmt"
	"testing"

	"securitykg/internal/graph"
)

// TestUnwindReadSemantics: UNWIND expansion rules on the engine and the
// reference — list literals fan out, null unwinds to zero rows, a scalar
// unwinds to itself, and the unwound variable participates in downstream
// clauses like any other binding.
func TestUnwindReadSemantics(t *testing.T) {
	for name, open := range map[string]func(*graph.Store) querier{
		"planned":   func(s *graph.Store) querier { return NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20}) },
		"reference": func(s *graph.Store) querier { return reference{s} },
	} {
		t.Run(name, func(t *testing.T) {
			e := open(writeFixture())

			res, err := e.Query("UNWIND [1, 2, 3] AS x RETURN x", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 3 {
				t.Errorf("UNWIND [1,2,3]: %d rows, want 3", len(res.Rows))
			}

			res, err = e.Query("UNWIND $xs AS x RETURN x", map[string]any{"xs": nil})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 0 {
				t.Errorf("UNWIND null: %d rows, want 0", len(res.Rows))
			}

			res, err = e.Query("UNWIND $xs AS x RETURN x", map[string]any{"xs": "solo"})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].String() != "solo" {
				t.Errorf("UNWIND scalar: rows = %v, want one row %q", res.Rows, "solo")
			}

			// Unwound value drives a MATCH filter.
			res, err = e.Query(
				"UNWIND $names AS nm MATCH (m:Malware) WHERE m.name = nm RETURN m.name",
				map[string]any{"names": []any{"wannacry", "absent"}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].String() != "wannacry" {
				t.Errorf("UNWIND+MATCH: rows = %v, want [wannacry]", res.Rows)
			}
		})
	}
}

// TestUnwindCreateDifferential: batch mutation through UNWIND produces
// identical stores on the engine and the reference.
func TestUnwindCreateDifferential(t *testing.T) {
	runWriteDifferential(t, []string{
		"UNWIND $batch AS row CREATE (h:Host {name: row.name, os: row.os})",
		"UNWIND $batch AS row MERGE (h:Host {name: row.name}) SET h.seen = 'yes'",
		"UNWIND [1, 2] AS x CREATE (n:Tick {name: x})",
	}, map[string]any{
		"batch": []any{
			map[string]any{"name": "h1", "os": "linux"},
			map[string]any{"name": "h2", "os": "windows"},
			map[string]any{"name": "h3", "os": "linux"},
		},
	})
}

// TestUnwindBatchSingleWALGroup is the ingest acceptance test: a 10k-row
// UNWIND batch creating a node and an edge per row reaches the WAL as
// exactly ONE transaction group (one tx_begin, one tx_commit, one
// group-commit fsync decision downstream) and moves the planner stats
// version at most once.
func TestUnwindBatchSingleWALGroup(t *testing.T) {
	const n = 10_000
	batch := make([]any, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, map[string]any{
			"name": fmt.Sprintf("host-%d", i),
			"ip":   fmt.Sprintf("10.0.%d.%d", i/256, i%256),
		})
	}

	s := graph.New()
	var ops []graph.MutationOp
	s.SetMutationHook(func(m graph.Mutation) { ops = append(ops, m.Op) })
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 64 << 20})

	sv0 := s.StatsVersion()
	res, err := e.Query(
		"UNWIND $batch AS row CREATE (h:Host {name: row.name})-[:SCANS]->(t:IP {name: row.ip})",
		map[string]any{"batch": batch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == nil || res.Writes.NodesCreated != 2*n || res.Writes.EdgesCreated != n {
		t.Fatalf("writes = %+v, want %d nodes and %d edges created", res.Writes, 2*n, n)
	}

	begins, commits, bare := 0, 0, 0
	for _, op := range ops {
		switch op {
		case graph.OpTxBegin:
			begins++
		case graph.OpTxCommit:
			commits++
		default:
			bare++
		}
	}
	if begins != 1 || commits != 1 {
		t.Errorf("WAL saw %d tx_begin / %d tx_commit markers, want exactly one group", begins, commits)
	}
	if bare != 3*n {
		t.Errorf("WAL saw %d mutations inside the group, want %d", bare, 3*n)
	}
	if bumps := s.StatsVersion() - sv0; bumps > 1 {
		t.Errorf("StatsVersion moved %d times during the batch, want at most 1", bumps)
	}
	if got := s.CountNodes(); got != 2*n {
		t.Errorf("CountNodes = %d, want %d", got, 2*n)
	}
}
