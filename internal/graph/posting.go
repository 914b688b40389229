package graph

import (
	"cmp"
	"iter"
	"slices"
)

// postingChunk is the most IDs one array of a posting holds — 4 KB, a
// capacity append's doubling lands on exactly — and so the most a write
// below the tail shifts.
const postingChunk = 512

// posting is one secondary-index entry: the node IDs filed under a
// label, a name or an attribute value, ascending. IDs are allocated
// monotonically, so filing a new node is an append; an index read is a
// copy of the list, already in the order every scan promises. The list
// is cut into chunks so that the writes which do land below the tail —
// DeleteNode, a SET moving a node to another indexed value, a rollback
// reinstalling a pre-image — shift one chunk in place instead of the
// list (BenchmarkIndexChurn). Nobody holds a posting outside the store
// lock: reads copy it (ids) or range it (all) under the lock.
type posting struct {
	n      int        // IDs filed
	chunks [][]NodeID // none empty; ascending within and from one to the next
}

// seek returns the chunk id belongs to — the last one that starts at or
// below it, else the first — and id's place in that chunk.
func (p posting) seek(id NodeID) (c, i int, found bool) {
	c, _ = slices.BinarySearchFunc(p.chunks, id, func(ch []NodeID, id NodeID) int { return cmp.Compare(ch[0]-1, id) })
	if c = max(c-1, 0); c < len(p.chunks) {
		i, found = slices.BinarySearch(p.chunks[c], id)
	}
	return c, i, found
}

// add returns p with id filed.
func (p posting) add(id NodeID) posting {
	c, i, found := p.seek(id)
	if found {
		return p
	}
	p.n++
	if len(p.chunks) == 0 || i == postingChunk { // past the end of a full chunk: open the next
		p.chunks = slices.Insert(p.chunks, min(c+1, len(p.chunks)), []NodeID{id})
		return p
	}
	if ch := p.chunks[c]; len(ch) == postingChunk { // full: the upper half moves out
		p.chunks = slices.Insert(p.chunks, c+1, slices.Clone(ch[postingChunk/2:]))
		if p.chunks[c] = ch[:postingChunk/2]; i > postingChunk/2 {
			c, i = c+1, i-postingChunk/2
		}
	}
	p.chunks[c] = slices.Insert(p.chunks[c], i, id)
	return p
}

// remove returns p without id (p itself when id is not filed). A chunk
// emptied to under a quarter of its array moves to one its own size.
func (p posting) remove(id NodeID) posting {
	c, i, found := p.seek(id)
	if !found {
		return p
	}
	p.n--
	switch ch := slices.Delete(p.chunks[c], i, i+1); {
	case len(ch) == 0:
		p.chunks = slices.Delete(p.chunks, c, c+1)
	case len(ch) < cap(ch)/4:
		p.chunks[c] = slices.Clone(ch)
	default:
		p.chunks[c] = ch
	}
	return p
}

// ids returns a copy the caller owns (never nil).
func (p posting) ids() []NodeID {
	out := make([]NodeID, 0, p.n)
	for _, ch := range p.chunks {
		out = append(out, ch...)
	}
	return out
}

// all ranges the IDs in place, ascending.
func (p posting) all() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for _, ch := range p.chunks {
			for _, id := range ch {
				if !yield(id) {
					return
				}
			}
		}
	}
}

// unfile removes id from the posting under k, pruning the entry when it
// empties: an index never holds an empty posting.
func unfile[K comparable](m map[K]posting, k K, id NodeID) {
	if p := m[k].remove(id); p.n == 0 {
		delete(m, k)
	} else {
		m[k] = p
	}
}
