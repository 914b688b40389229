package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// TestLiveCountsUnderChurn drives seeded random histories — merges, edge
// adds (self-loops, the empty edge type and the empty label included),
// SETs, edge and node deletes, migrations, committed and rolled-back
// transactions, failed batches — and after every step recounts labels
// and edge types from the slabs: the live counts must be exactly the
// recount (checkLiveCounts). The logged history
// then rebuilds the same counts through an Apply loop in a load bracket,
// as recovery replays, and both codecs reload them.
func TestLiveCountsUnderChurn(t *testing.T) {
	// A Store and a Tx write through one method: the dispatch every write
	// shares.
	type writer interface{ Apply(Mutation) error }
	labels := []string{"Malware", "IP", "Domain", ""}
	etypes := []string{"CONNECT", "USE", ""}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var log []Mutation
		s.SetMutationHook(func(m Mutation) { log = append(log, cloneMutation(m)) })
		// node and edge pick from the latest slabs, an open transaction's
		// writes included.
		node := func() NodeID {
			if ids := s.liveNodeIDsLocked(); len(ids) > 0 {
				return ids[rng.Intn(len(ids))]
			}
			return 0 // unknown: the write fails and changes nothing
		}
		edge := func() EdgeID {
			var ids []EdgeID
			for id, rec := range s.edges {
				if rec.e != nil {
					ids = append(ids, EdgeID(id))
				}
			}
			if len(ids) > 0 {
				return ids[rng.Intn(len(ids))]
			}
			return 0
		}
		write := func(w writer) {
			switch rng.Intn(10) {
			case 0, 1, 2:
				w.Apply(Mutation{Op: OpMergeNode, Type: labels[rng.Intn(len(labels))], Name: fmt.Sprintf("n%d", rng.Intn(40)), Attrs: map[string]string{"k": fmt.Sprint(rng.Intn(3))}})
			case 3, 4, 5, 6:
				w.Apply(Mutation{Op: OpAddEdge, From: node(), Type: etypes[rng.Intn(len(etypes))], To: node()})
			case 7:
				w.Apply(Mutation{Op: OpSetAttr, Node: node(), Key: "k", Val: fmt.Sprint(rng.Intn(3))})
			case 8:
				if rng.Intn(2) == 0 {
					w.Apply(Mutation{Op: OpDeleteEdge, Edge: edge()})
				} else {
					w.Apply(Mutation{Op: OpDeleteNode, Node: node()})
				}
			case 9:
				w.Apply(Mutation{Op: OpMigrateEdges, From: node(), To: node()})
			}
		}
		for step := 0; step < 250; step++ {
			switch rng.Intn(8) {
			case 0: // a transaction, committed or rolled back
				tx := s.BeginTx()
				for i := rng.Intn(12); i >= 0; i-- {
					write(tx)
				}
				if rng.Intn(2) == 0 {
					tx.Rollback()
				} else if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			case 1: // a batch whose last mutation fails: rolled back whole
				a, b := node(), node()
				if _, err := s.ApplyBatch([]Mutation{
					{Op: OpMergeNode, Type: "Tool", Name: fmt.Sprintf("t%d", step)},
					{Op: OpAddEdge, From: a, Type: "USE", To: b},
					{Op: OpDeleteNode, Node: a},
					{Op: OpDeleteNode, Node: 1 << 30},
				}); err == nil {
					t.Fatal("ApplyBatch deleted a node that never existed")
				}
			default:
				write(s)
			}
			checkLiveCounts(t, s)
			if t.Failed() {
				t.Fatalf("seed %d: live counts wrong after step %d", seed, step)
			}
		}

		want := saveBytesOf(t, s)
		replayed := New()
		replayed.BeginBulk()
		for _, m := range log {
			if err := replayed.Apply(m); err != nil {
				t.Fatalf("seed %d: replay: %v", seed, err)
			}
		}
		replayed.EndBulk()
		var bin bytes.Buffer
		if err := s.SaveBinary(&bin); err != nil {
			t.Fatal(err)
		}
		fromBinary, err := Load(&bin)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Store{"replay": replayed, "SaveBinary/Load": fromBinary} {
			if !bytes.Equal(saveBytesOf(t, got), want) {
				t.Fatalf("seed %d: %s did not reproduce the store", seed, name)
			}
			checkLiveCounts(t, got)
			if a, b := got.Stats().EdgesByType, s.Stats().EdgesByType; !maps.Equal(a, b) {
				t.Errorf("seed %d: %s: Stats().EdgesByType = %v, want %v", seed, name, a, b)
			}
			for _, l := range labels {
				if a, b := got.CountByType(l), s.CountByType(l); a != b {
					t.Errorf("seed %d: %s: CountByType(%q) = %d, want %d", seed, name, l, a, b)
				}
			}
		}
	}
}

// churnStore is one 100k-node label with `family` indexed over two
// values (node id has family (id-1)%2): every node sits in a 100k byType
// posting and in 50k propIdx and typeAttr postings, sizes at which a
// write below a posting's tail would show if it moved the whole list.
func churnStore() (*Store, []NodeID) {
	const n = 100_000
	s := New()
	s.IndexAttr("family")
	s.Reserve(n, 0)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i], _ = s.MergeNode("Malware", fmt.Sprintf("m-%06d", i), map[string]string{"family": fmt.Sprintf("f%d", i%2)})
	}
	rand.New(rand.NewSource(17)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return s, ids
}

// BenchmarkIndexChurn is the traffic the ledger's workloads never send:
// random-ID writes that unfile from (and file into) the middle of large
// postings — `fusion.Fuse`, Cypher SET on an indexed attribute, DETACH
// DELETE. One op = one write; each arm does 10k of them per store, and
// every set-indexed op moves its node to the other family.
func BenchmarkIndexChurn(b *testing.B) {
	const perStore = 10_000
	for _, arm := range []struct {
		name string
		op   func(s *Store, id NodeID) error
	}{
		{"set-indexed", func(s *Store, id NodeID) error { return setAttr(s, id, "family", fmt.Sprintf("f%d", id%2)) }},
		{"delete", func(s *Store, id NodeID) error { return deleteNode(s, id) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var s *Store
			var ids []NodeID
			for i := 0; i < b.N; i++ {
				if i%perStore == 0 {
					b.StopTimer()
					s, ids = churnStore()
					b.StartTimer()
				}
				if err := arm.op(s, ids[i%perStore]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
