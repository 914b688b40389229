package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// checkPosting holds p to its invariants and to the IDs a plain sorted
// slice says it should hold.
func checkPosting(t *testing.T, p posting, want []NodeID) {
	t.Helper()
	got := p.ids()
	if got == nil || !slices.Equal(got, want) {
		t.Fatalf("ids() = %v, want %v", got, want)
	}
	if p.n != len(want) {
		t.Fatalf("n = %d, want %d", p.n, len(want))
	}
	if ranged := slices.Collect(p.all()); !slices.Equal(ranged, got) {
		t.Fatalf("all() yields %v, ids() %v", ranged, got)
	}
	for c, ch := range p.chunks {
		if len(ch) == 0 || len(ch) > postingChunk {
			t.Fatalf("chunk %d holds %d IDs, want 1..%d", c, len(ch), postingChunk)
		}
	}
}

// TestPostingOrder: whatever mix of tail appends, inserts below the tail
// and removes a posting sees, it stays ascending and duplicate-free.
func TestPostingOrder(t *testing.T) {
	var p posting
	for _, id := range []NodeID{2, 5, 9} { // the allocator's order: appends
		p = p.add(id)
	}
	p = p.add(7) // a SET moving a node here, a rollback's pre-image: mid insert
	p = p.add(1) // ... at the front
	p = p.add(7) // already filed
	checkPosting(t, p, []NodeID{1, 2, 5, 7, 9})
	for _, step := range []struct {
		id   NodeID
		want []NodeID
	}{
		{5, []NodeID{1, 2, 7, 9}}, // middle
		{4, []NodeID{1, 2, 7, 9}}, // not filed
		{9, []NodeID{1, 2, 7}},    // tail
		{1, []NodeID{2, 7}},       // head
		{2, []NodeID{7}},
		{7, []NodeID{}},
	} {
		p = p.remove(step.id)
		checkPosting(t, p, step.want)
	}
	if len(p.chunks) != 0 {
		t.Errorf("an emptied posting keeps %d chunks", len(p.chunks))
	}
}

// TestPostingAgainstSortedSlice drives a posting several chunks long —
// bulk appends, then random adds and removes, so chunks fill, split,
// thin out and vanish — beside a plain sorted slice.
func TestPostingAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const span = 6 * postingChunk
	var p posting
	var model []NodeID
	for id := NodeID(2); id <= span; id += 2 { // even IDs in allocator order: full chunks, no splits
		p, model = p.add(id), append(model, id)
	}
	checkPosting(t, p, model)
	if want := span / 2 / postingChunk; len(p.chunks) != want {
		t.Errorf("%d appended IDs sit in %d chunks, want %d full ones", len(model), len(p.chunks), want)
	}
	for step := 0; step < 40_000; step++ {
		id := NodeID(rng.Intn(span+2)) + 1               // odd IDs split full chunks; span+1, span+2 extend the tail
		if phase := step / 10_000; rng.Intn(4) < phase { // adds dominate first, removes last
			p = p.remove(id)
			if i, found := slices.BinarySearch(model, id); found {
				model = slices.Delete(model, i, i+1)
			}
		} else {
			p = p.add(id)
			if i, found := slices.BinarySearch(model, id); !found {
				model = slices.Insert(model, i, id)
			}
		}
		if step%97 == 0 {
			checkPosting(t, p, model)
		}
	}
	checkPosting(t, p, model)
	for _, id := range slices.Clone(model) { // and all the way down, front to back
		p = p.remove(id)
	}
	checkPosting(t, p, []NodeID{})
}

// TestPostingReadsAreCopies: writes land in the posting's own arrays
// (nothing holds a posting outside the store lock), so what a reader
// keeps is the ids() copy — and that shows what it showed through an
// append into spare capacity, a mid insert, a remove at every position
// and an append into the slot a tail remove vacated.
func TestPostingReadsAreCopies(t *testing.T) {
	want := []NodeID{10, 20, 30, 40, 50}
	for name, write := range map[string]func(posting) posting{
		"append":                  func(p posting) posting { return p.add(60) },
		"mid insert":              func(p posting) posting { return p.add(25) },
		"remove mid":              func(p posting) posting { return p.remove(30) },
		"remove head":             func(p posting) posting { return p.remove(10).add(60) },
		"remove tail then append": func(p posting) posting { return p.remove(50).add(70) },
	} {
		var p posting
		for _, id := range want {
			p = p.add(id)
		}
		held := p.ids()
		p = write(p)
		if !slices.Equal(held, want) {
			t.Errorf("%s: a reader's copy now shows %v, want %v", name, held, want)
		}
	}
}

// TestPostingWritesStayLocal: removing from and filing into the middle
// of a large posting allocates nothing and touches one chunk, and a
// posting emptied front to back gives its arrays up on the way down
// instead of holding them to the last ID.
func TestPostingWritesStayLocal(t *testing.T) {
	const n = 16 * postingChunk
	var p posting
	for id := NodeID(1); id <= n; id++ {
		p = p.add(id)
	}
	if a := testing.AllocsPerRun(100, func() { p = p.remove(n / 3).add(n / 3) }); a != 0 {
		t.Errorf("remove+add in the middle of a %d-ID posting: %.0f allocations, want 0", n, a)
	}
	for id := NodeID(1); id <= n-8; id++ {
		p = p.remove(id)
	}
	if len(p.chunks) != 1 || len(p.chunks[0]) != 8 || cap(p.chunks[0]) > 32 {
		t.Errorf("8 IDs left of %d: %d chunks, the last %d IDs in an array of %d", n, len(p.chunks), len(p.chunks[0]), cap(p.chunks[0]))
	}
}
