package graph

// Symbol interning: labels, edge types, and attribute names are a tiny,
// heavily repeated vocabulary (an ontology's worth of strings spread
// over millions of nodes and edges). The store interns each distinct
// string once into a dense uint32 symbol and keys every internal index
// on the symbol instead of the string, so the hot paths — merge-index
// probes, edge-key probes, type filters during expansion, statistics
// rekeying — compare and hash 4-byte integers, and every node label in
// memory shares one heap copy of its string. The exported API stays
// string-typed: symbols resolve at the boundary via the table, which is
// a plain slice index.
//
// The design follows janus-datalog's datalog/intern.go lineage (cited
// in ROADMAP item 3): a per-store table, dense IDs in intern order, no
// global state. The table only grows; symbols are never reused, so a
// Sym resolved once stays valid for the store's lifetime.

// Sym is a dense interned-string ID. Sym 0 is always the empty string,
// so zero values resolve to "".
type Sym uint32

// symNone is a sentinel that matches no interned string; lookups of
// unknown strings return it so type filters against a string the store
// has never seen compare unequal to every real symbol.
const symNone = Sym(^uint32(0))

// symtab is the per-store intern table. It is guarded by the store's
// mutex: interning happens under the write lock, resolution under
// either lock (resolution is a slice read of an append-only slice).
type symtab struct {
	strs []string
	ids  map[string]Sym
}

func newSymtab() *symtab {
	t := &symtab{strs: make([]string, 1, 16), ids: make(map[string]Sym, 16)}
	t.strs[0] = ""
	t.ids[""] = 0
	return t
}

// intern returns the symbol for s, assigning the next dense ID on first
// sight.
func (t *symtab) intern(s string) Sym {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := Sym(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// lookup returns the symbol for s without interning; symNone when the
// store has never seen the string.
func (t *symtab) lookup(s string) Sym {
	if id, ok := t.ids[s]; ok {
		return id
	}
	return symNone
}

// str resolves a symbol back to its string. Resolving symNone or an
// out-of-range symbol returns "" (never panics: symbols only enter the
// system through intern/lookup).
func (t *symtab) str(id Sym) string {
	if int(id) < len(t.strs) {
		return t.strs[id]
	}
	return ""
}

// canon returns the canonical (interned) copy of s, interning it if
// new. Using the canonical string as a map key or struct field lets
// every occurrence share one heap allocation.
func (t *symtab) canon(s string) string {
	return t.strs[t.intern(s)]
}
