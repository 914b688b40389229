// Package depparse implements the dependency-parsing-based relation
// extraction pipeline of the paper (Section 2.4): a deterministic
// rule-based arc builder over POS-tagged tokens, and an unsupervised
// extractor that finds the relation verb connecting two recognized
// entities (subject-verb-object and verb-preposition-object paths,
// including passive voice and object conjunctions).
package depparse

import (
	"sort"

	"securitykg/internal/ontology"
	"securitykg/internal/textproc"
)

// Arc is one dependency edge: Head and Dep are token indices; Label is a
// Universal-Dependencies-flavored relation name.
type Arc struct {
	Head  int
	Dep   int
	Label string // nsubj, nsubjpass, dobj, prep, pobj, agent, conj, det, amod, aux
}

// Parse builds dependency arcs for one sentence of annotated tokens
// (textproc.Annotate output). The grammar is intentionally small: it
// resolves exactly the structures relation extraction consumes.
func Parse(toks []textproc.Token) []Arc {
	var arcs []Arc
	chunks := chunkNouns(toks)
	headOf := make([]int, len(toks)) // token -> its chunk head (or self)
	for i := range headOf {
		headOf[i] = i
	}
	for _, c := range chunks {
		for i := c.start; i < c.end; i++ {
			headOf[i] = c.head
		}
		// Internal chunk arcs: det/amod to the head.
		for i := c.start; i < c.end; i++ {
			if i == c.head {
				continue
			}
			label := "compound"
			switch toks[i].POS {
			case textproc.TagDT:
				label = "det"
			case textproc.TagJJ:
				label = "amod"
			}
			arcs = append(arcs, Arc{Head: c.head, Dep: i, Label: label})
		}
	}

	groups := verbGroups(toks)
	for _, g := range groups {
		// Auxiliaries attach to the main verb.
		for i := g.start; i < g.end; i++ {
			if i != g.main {
				arcs = append(arcs, Arc{Head: g.main, Dep: i, Label: "aux"})
			}
		}
		// Subject: nearest chunk head to the left, not crossing another verb.
		if subj := findSubject(toks, chunks, groups, g); subj >= 0 {
			label := "nsubj"
			if g.passive {
				label = "nsubjpass"
			}
			arcs = append(arcs, Arc{Head: g.main, Dep: subj, Label: label})
		}
		// Objects to the right until the next verb group.
		arcs = append(arcs, findObjects(toks, chunks, groups, g, headOf)...)
	}
	return arcs
}

// nounChunk is a maximal DT/JJ/NN* run; head is the last noun.
type nounChunk struct {
	start, end, head int
}

func chunkNouns(toks []textproc.Token) []nounChunk {
	var out []nounChunk
	i := 0
	for i < len(toks) {
		if !chunkable(toks[i].POS) {
			i++
			continue
		}
		j := i
		head := -1
		for j < len(toks) && chunkable(toks[j].POS) {
			// Nouns and pronouns head chunks; numbers can too (IOCs such
			// as IP addresses tokenize as CD).
			if textproc.IsNounTag(toks[j].POS) || toks[j].POS == textproc.TagPRP ||
				toks[j].POS == textproc.TagCD {
				head = j
			}
			j++
		}
		if head >= 0 {
			out = append(out, nounChunk{start: i, end: j, head: head})
		}
		i = j
	}
	return out
}

func chunkable(pos string) bool {
	return textproc.IsNounTag(pos) || pos == textproc.TagDT ||
		pos == textproc.TagJJ || pos == textproc.TagPRP ||
		pos == textproc.TagPRPS || pos == textproc.TagCD
}

// verbGroup is a run of verb/aux/modal tokens; main is the lexical head
// (last verb); passive when the head is VBN preceded by a be-form.
type verbGroup struct {
	start, end, main int
	passive          bool
}

func verbGroups(toks []textproc.Token) []verbGroup {
	var out []verbGroup
	i := 0
	for i < len(toks) {
		if !verbish(toks[i]) {
			i++
			continue
		}
		j := i
		for j < len(toks) && (verbish(toks[j]) || toks[j].POS == textproc.TagRB ||
			toks[j].POS == textproc.TagTO) {
			j++
		}
		// Trim trailing adverbs/TO from the group.
		end := j
		for end > i && !verbish(toks[end-1]) {
			end--
		}
		main := end - 1
		g := verbGroup{start: i, end: end, main: main}
		if toks[main].POS == textproc.TagVBN {
			for k := i; k < main; k++ {
				if toks[k].Lemma == "be" {
					g.passive = true
					break
				}
			}
		}
		out = append(out, g)
		i = j
	}
	return out
}

func verbish(t textproc.Token) bool {
	return textproc.IsVerbTag(t.POS) || t.POS == textproc.TagMD
}

func findSubject(toks []textproc.Token, chunks []nounChunk, groups []verbGroup, g verbGroup) int {
	best := -1
	for _, c := range chunks {
		if c.end > g.start {
			break
		}
		// Subject must not be separated from the verb by another verb group.
		blocked := false
		for _, og := range groups {
			if og.start >= c.end && og.end <= g.start {
				blocked = true
				break
			}
		}
		if !blocked {
			best = c.head
		}
	}
	return best
}

func findObjects(toks []textproc.Token, chunks []nounChunk, groups []verbGroup, g verbGroup, headOf []int) []Arc {
	var arcs []Arc
	// Scan region: from end of verb group to start of next verb group (or EOS).
	limit := len(toks)
	for _, og := range groups {
		if og.start >= g.end && og.start < limit {
			limit = og.start
		}
	}
	pendingPrep := -1 // token index of an open preposition
	firstDirect := true
	var lastObjArc *int // index into arcs of the last object arc, for conj
	for i := g.end; i < limit; i++ {
		t := toks[i]
		switch {
		case t.POS == textproc.TagIN || t.POS == textproc.TagTO:
			pendingPrep = i
		case t.POS == textproc.TagCC || t.Text == ",":
			// Conjunction continues the previous object role.
		case textproc.IsNounTag(t.POS) || t.POS == textproc.TagPRP ||
			t.POS == textproc.TagCD:
			h := headOf[i]
			if h != i {
				// Only attach once per chunk, at its head.
				if i != h {
					continue
				}
			}
			if pendingPrep >= 0 {
				arcs = append(arcs, Arc{Head: g.main, Dep: pendingPrep, Label: "prep"})
				label := "pobj"
				if g.passive && toks[pendingPrep].Lemma == "by" {
					label = "agent"
				}
				arcs = append(arcs, Arc{Head: pendingPrep, Dep: h, Label: label})
				idx := len(arcs) - 1
				lastObjArc = &idx
				pendingPrep = -1
			} else if firstDirect {
				arcs = append(arcs, Arc{Head: g.main, Dep: h, Label: "dobj"})
				idx := len(arcs) - 1
				lastObjArc = &idx
				firstDirect = false
			} else if lastObjArc != nil {
				// Conjoined object: inherit the previous role's head.
				prev := arcs[*lastObjArc]
				arcs = append(arcs, Arc{Head: prev.Head, Dep: h, Label: prev.Label + ":conj"})
			}
			// Skip to the end of this chunk.
			for i+1 < limit && headOf[i+1] == h {
				i++
			}
		}
	}
	return arcs
}

// EntitySpan is a recognized entity anchored to token positions
// [Start, End) in the sentence.
type EntitySpan struct {
	Type  ontology.EntityType
	Name  string
	Start int
	End   int
}

// Triple is one extracted relation between two entity spans.
type Triple struct {
	Src  EntitySpan
	Verb string // lemmatized relation verb
	Rel  ontology.RelationType
	Dst  EntitySpan
}

// ExtractRelations finds relation verbs connecting entity pairs along
// dependency paths: subject->verb->object, subject->verb->prep->pobj, and
// passive constructions ("X was dropped by Y" yields <Y, DROP, X>). Verbs
// map to ontology relation types via the curated verb table; pairs whose
// specific relation the schema rejects fall back to RELATED_TO.
func ExtractRelations(toks []textproc.Token, spans []EntitySpan) []Triple {
	if len(spans) < 2 {
		return nil
	}
	arcs := Parse(toks)
	// Chunk map for head-to-span fallback: "The CozyDuke group" has chunk
	// head "group" while the entity span covers only "CozyDuke"; a head
	// token resolves to any entity span overlapping its chunk.
	chunks := chunkNouns(toks)
	chunkAt := make([]int, len(toks))
	for i := range chunkAt {
		chunkAt[i] = -1
	}
	for ci, c := range chunks {
		for i := c.start; i < c.end; i++ {
			chunkAt[i] = ci
		}
	}
	spanOf := func(tokIdx int) *EntitySpan {
		for i := range spans {
			if tokIdx >= spans[i].Start && tokIdx < spans[i].End {
				return &spans[i]
			}
		}
		if tokIdx >= 0 && tokIdx < len(chunkAt) && chunkAt[tokIdx] >= 0 {
			c := chunks[chunkAt[tokIdx]]
			for i := range spans {
				if spans[i].Start < c.end && spans[i].End > c.start {
					return &spans[i]
				}
			}
		}
		return nil
	}
	// Collect per-verb roles.
	type roles struct {
		subj, obj, agent []*EntitySpan
		dobj, pobj       []*EntitySpan
		passiveSubj      []*EntitySpan
	}
	verbRoles := map[int]*roles{}
	get := func(v int) *roles {
		r, ok := verbRoles[v]
		if !ok {
			r = &roles{}
			verbRoles[v] = r
		}
		return r
	}
	prepHead := map[int]int{} // prep token -> verb
	for _, a := range arcs {
		switch a.Label {
		case "nsubj":
			if sp := spanOf(a.Dep); sp != nil {
				get(a.Head).subj = append(get(a.Head).subj, sp)
			}
		case "nsubjpass":
			if sp := spanOf(a.Dep); sp != nil {
				get(a.Head).passiveSubj = append(get(a.Head).passiveSubj, sp)
			}
		case "dobj", "dobj:conj":
			if sp := spanOf(a.Dep); sp != nil {
				r := get(a.Head)
				r.obj = append(r.obj, sp)
				r.dobj = append(r.dobj, sp)
			}
		case "prep":
			prepHead[a.Dep] = a.Head
		case "pobj", "pobj:conj":
			verb, ok := prepHead[a.Head]
			if !ok {
				// conj inherits its prep's verb via the same prep token
				continue
			}
			if sp := spanOf(a.Dep); sp != nil {
				r := get(verb)
				r.obj = append(r.obj, sp)
				r.pobj = append(r.pobj, sp)
			}
		case "agent", "agent:conj":
			verb, ok := prepHead[a.Head]
			if !ok {
				continue
			}
			if sp := spanOf(a.Dep); sp != nil {
				get(verb).agent = append(get(verb).agent, sp)
			}
		}
	}
	var out []Triple
	emit := func(src, dst *EntitySpan, verb int) {
		if src == nil || dst == nil || src == dst {
			return
		}
		lemma := toks[verb].Lemma
		rel := ontology.VerbRelation(lemma)
		if !ontology.Admissible(src.Type, rel, dst.Type) {
			rel = ontology.RelRelatedTo
		}
		out = append(out, Triple{Src: *src, Verb: lemma, Rel: rel, Dst: *dst})
	}
	// In text order, so that the triples (and which verb a duplicated
	// pair keeps) do not depend on map iteration.
	verbs := make([]int, 0, len(verbRoles))
	for v := range verbRoles {
		verbs = append(verbs, v)
	}
	sort.Ints(verbs)
	for _, v := range verbs {
		r := verbRoles[v]
		for _, s := range r.subj {
			for _, o := range r.obj {
				emit(s, o, v)
			}
		}
		// Non-entity subject with entity dobj and pobj: the direct object
		// relates to the prepositional object ("Researchers attributed
		// MALWARE to ACTOR" -> <MALWARE, ATTRIBUTED_TO, ACTOR>).
		if len(r.subj) == 0 {
			for _, d := range r.dobj {
				for _, p := range r.pobj {
					emit(d, p, v)
				}
			}
		}
		// Passive: agent is the semantic subject, passive subject the object.
		for _, ag := range r.agent {
			for _, ps := range r.passiveSubj {
				emit(ag, ps, v)
			}
		}
		// Passive without agent but with prep objects: passive subject acts
		// as semantic object of the verb ("X was observed in ...") — no
		// entity pair, skip.
	}
	return dedupeTriples(out)
}

func dedupeTriples(ts []Triple) []Triple {
	seen := map[string]bool{}
	out := ts[:0]
	for _, t := range ts {
		k := string(t.Src.Type) + t.Src.Name + string(t.Rel) + string(t.Dst.Type) + t.Dst.Name
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}
