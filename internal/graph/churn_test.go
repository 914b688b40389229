package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

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
		{"set-indexed", func(s *Store, id NodeID) error { return s.SetAttr(id, "family", fmt.Sprintf("f%d", id%2)) }},
		{"delete", func(s *Store, id NodeID) error { return s.DeleteNode(id) }},
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
