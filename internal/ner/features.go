// Package ner implements SecurityKG's security-related entity recognition:
// IOC protection, gazetteer matching, data-programming label synthesis, a
// CRF sequence model with lemma/POS/shape/embedding-cluster features, and
// a regex+gazetteer baseline for comparison (the paper claims the CRF
// outperforms the naive baseline and generalizes to unseen entities).
package ner

import (
	"slices"
	"strconv"
	"strings"

	"securitykg/internal/crf"
	"securitykg/internal/gazetteer"
	"securitykg/internal/ioc"
	"securitykg/internal/ontology"
	"securitykg/internal/textproc"
)

// classes are the CRF entity classes in vote-index order; index 0 is O.
var classes = append([]gazetteer.Class{"O"}, gazetteer.Classes()...)

// classIndex returns the vote index of a class.
func classIndex(c gazetteer.Class) int {
	for i, x := range classes {
		if x == c {
			return i
		}
	}
	return 0
}

// EntityTypeOf maps a gazetteer/CRF class to its ontology entity type.
func EntityTypeOf(c gazetteer.Class) (ontology.EntityType, bool) {
	switch c {
	case gazetteer.ClassMalware:
		return ontology.TypeMalware, true
	case gazetteer.ClassFamily:
		return ontology.TypeMalwareFamily, true
	case gazetteer.ClassActor:
		return ontology.TypeThreatActor, true
	case gazetteer.ClassTechnique:
		return ontology.TypeTechnique, true
	case gazetteer.ClassTool:
		return ontology.TypeTool, true
	case gazetteer.ClassSoftware:
		return ontology.TypeSoftware, true
	case gazetteer.ClassPlatform:
		return ontology.TypeMalwarePlatform, true
	case gazetteer.ClassVendor:
		return ontology.TypeCTIVendor, true
	}
	return "", false
}

// sentenceTokens is one preprocessed sentence: annotated tokens plus
// per-token gazetteer span info.
type sentenceTokens struct {
	toks []textproc.Token
	// lower[i] is the lowercased surface form of token i.
	lower []string
	// gazClass[i] is the class of the gazetteer span covering token i
	// ("" when uncovered); gazBegin[i] marks span starts.
	gazClass []gazetteer.Class
	gazBegin []bool
	// placeholder[i] is true when the token is an IOC placeholder.
	placeholder []bool
}

// prepareSentence annotates and gazetteer-tags the tokens of one protected
// sentence.
func prepareSentence(text string, prot *ioc.Protection, lookup *gazetteer.Lookup) sentenceTokens {
	toks := textproc.Annotate(text)
	st := sentenceTokens{
		toks:        toks,
		lower:       make([]string, len(toks)),
		gazClass:    make([]gazetteer.Class, len(toks)),
		gazBegin:    make([]bool, len(toks)),
		placeholder: make([]bool, len(toks)),
	}
	for i, t := range toks {
		st.lower[i] = strings.ToLower(t.Text)
		if prot != nil {
			if _, ok := prot.IsPlaceholder(t.Text); ok {
				st.placeholder[i] = true
			}
		}
	}
	// Longest-match gazetteer tagging.
	for i := 0; i < len(toks); {
		matched, mclass := lookup.LongestMatch(st.lower, i)
		if matched == 0 {
			i++
			continue
		}
		st.gazBegin[i] = true
		for k := 0; k < matched; k++ {
			st.gazClass[i+k] = mclass
		}
		i += matched
	}
	return st
}

// A template is one kind of token feature. A feature is the template's
// name followed by a value: the template's family of values read off the
// token the feature belongs to or off a neighbour (the -1/-2/+1/+2
// templates). A flag has no family; its name is the whole feature.
type template uint8

const (
	tBias template = iota
	tWord
	tLemma
	tPOS
	tShape
	tPre3
	tSuf3
	tFirst
	tCap
	tAllCaps
	tHasDigit
	tPlaceholder
	tGaz
	tGazB
	tEmb
	tPrevWord
	tPrevPOS
	tPrevLemma
	tStart
	tPrev2POS
	tPrev2Lemma
	tNextWord
	tNextPOS
	tNextLemma
	tEnd
	tNext2POS
	tNext2Lemma
	nTemplates
)

// family is the kind of value a template's features carry.
type family uint8

const (
	famFlag  family = iota // no value
	famWord                // the lowercased surface form
	famLemma               // the lemma
	famPOS                 // the part-of-speech tag
	famShape               // the word shape
	famPre3                // the word's first three bytes
	famSuf3                // the word's last three bytes
	famGaz                 // the class of the gazetteer span covering the token
	famEmb                 // the embedding cluster of the word
	nFamilies
)

// templates names each template and gives its family and its slot, its
// place in a row of the family's ids (idRow).
var templates = [nTemplates]struct {
	name string
	fam  family
	slot int
}{
	tBias:        {"bias", famFlag, 0},
	tWord:        {"w=", famWord, 0},
	tLemma:       {"lemma=", famLemma, 0},
	tPOS:         {"pos=", famPOS, 0},
	tShape:       {"shape=", famShape, 0},
	tPre3:        {"pre3=", famPre3, 0},
	tSuf3:        {"suf3=", famSuf3, 0},
	tFirst:       {"first", famFlag, 0},
	tCap:         {"cap", famFlag, 0},
	tAllCaps:     {"allcaps", famFlag, 0},
	tHasDigit:    {"hasdigit", famFlag, 0},
	tPlaceholder: {"iocplaceholder", famFlag, 0},
	tGaz:         {"gaz=", famGaz, 0},
	tGazB:        {"gazB=", famGaz, 1},
	tEmb:         {"emb=", famEmb, 0},
	tPrevWord:    {"-1w=", famWord, 1},
	tPrevPOS:     {"-1pos=", famPOS, 1},
	tPrevLemma:   {"-1lemma=", famLemma, 1},
	tStart:       {"-1w=<s>", famFlag, 0},
	tPrev2POS:    {"-2pos=", famPOS, 2},
	tPrev2Lemma:  {"-2lemma=", famLemma, 2},
	tNextWord:    {"+1w=", famWord, 2},
	tNextPOS:     {"+1pos=", famPOS, 3},
	tNextLemma:   {"+1lemma=", famLemma, 3},
	tEnd:         {"+1w=</s>", famFlag, 0},
	tNext2POS:    {"+2pos=", famPOS, 4},
	tNext2Lemma:  {"+2lemma=", famLemma, 4},
}

// value is token j's value in family f. For famEmb it is the word whose
// cluster the feature carries.
func (st *sentenceTokens) value(f family, j int) string {
	switch f {
	case famWord, famEmb:
		return st.lower[j]
	case famLemma:
		return st.toks[j].Lemma
	case famPOS:
		return st.toks[j].POS
	case famShape:
		return st.toks[j].Shape
	case famPre3:
		if lw := st.lower[j]; len(lw) >= 3 {
			return lw[:3]
		}
	case famSuf3:
		if lw := st.lower[j]; len(lw) >= 3 {
			return lw[len(lw)-3:]
		}
	case famGaz:
		return string(st.gazClass[j])
	}
	return ""
}

// featureSink receives the sparse CRF features of one token, each as its
// template and the index of the token whose value it carries. The sink
// reads the value itself: as a string to train on, or as the model's id.
type featureSink interface {
	Add(t template, j int)
}

// emit hands the features of token i of the sentence to sink. It is the
// one description of the feature set, and its order is part of the model:
// a token's score is summed in it.
func (st *sentenceTokens) emit(i int, sink featureSink) {
	t := st.toks[i]
	lw := st.lower[i]
	sink.Add(tBias, i)
	sink.Add(tWord, i)
	sink.Add(tLemma, i)
	sink.Add(tPOS, i)
	sink.Add(tShape, i)
	if len(lw) >= 3 {
		sink.Add(tPre3, i)
		sink.Add(tSuf3, i)
	}
	if i == 0 {
		sink.Add(tFirst, i)
	}
	if t.Text != "" && t.Text[0] >= 'A' && t.Text[0] <= 'Z' {
		sink.Add(tCap, i)
		if len(t.Text) > 1 && isUpper(t.Text) {
			sink.Add(tAllCaps, i)
		}
	}
	if strings.ContainsAny(lw, "0123456789") {
		sink.Add(tHasDigit, i)
	}
	if st.placeholder[i] {
		sink.Add(tPlaceholder, i)
	}
	if st.gazClass[i] != "" {
		sink.Add(tGaz, i)
		if st.gazBegin[i] {
			sink.Add(tGazB, i)
		}
	}
	// Only a word with an embedding cluster has this feature; the sink,
	// which knows the clusters, drops it for the others.
	sink.Add(tEmb, i)
	// Context window.
	if i > 0 {
		sink.Add(tPrevWord, i-1)
		sink.Add(tPrevPOS, i-1)
		sink.Add(tPrevLemma, i-1)
	} else {
		sink.Add(tStart, i)
	}
	if i > 1 {
		sink.Add(tPrev2POS, i-2)
		sink.Add(tPrev2Lemma, i-2)
	}
	if i+1 < len(st.toks) {
		sink.Add(tNextWord, i+1)
		sink.Add(tNextPOS, i+1)
		sink.Add(tNextLemma, i+1)
	} else {
		sink.Add(tEnd, i)
	}
	if i+2 < len(st.toks) {
		sink.Add(tNext2POS, i+2)
		sink.Add(tNext2Lemma, i+2)
	}
}

// isUpper reports whether uppercasing s leaves it unchanged.
func isUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return strings.ToUpper(s) == s
		}
		if s[i] >= 'a' && s[i] <= 'z' {
			return false
		}
	}
	return true
}

// featureStrings collects the features of a sentence's tokens as the
// strings a CRF is trained on.
type featureStrings struct {
	st       *sentenceTokens
	clusters map[string]int
	out      []string
}

func (f *featureStrings) Add(t template, j int) {
	tp := &templates[t]
	v := f.st.value(tp.fam, j)
	if tp.fam == famEmb {
		cl, ok := f.clusters[v]
		if !ok {
			return
		}
		v = strconv.Itoa(cl)
	}
	f.out = append(f.out, tp.name+v)
}

// featureMatrix computes the feature strings of every token of the
// sentence.
func (st *sentenceTokens) featureMatrix(clusters map[string]int) [][]string {
	out := make([][]string, len(st.toks))
	fs := featureStrings{st: st, clusters: clusters}
	for i := range st.toks {
		fs.out = make([]string, 0, 24)
		st.emit(i, &fs)
		out[i] = fs.out
	}
	return out
}

// idRow holds the ids of the features one value gives under each template
// of its family, by slot; -1 marks a feature the model does not know,
// which weighs nothing.
type idRow [5]int32

// featureIDs resolves tokens to the ids their features have in one model.
// It holds only what the model knows, is built once per model and is
// read-only after, so the extract workers share it.
type featureIDs struct {
	flags [nTemplates]int32 // each flag's id, or -1
	// rows[f] maps a value of family f to its row; emb's rows are keyed
	// by the word, whose cluster the feature carries.
	rows [nFamilies]map[string]*idRow
}

func newFeatureIDs(m *crf.Model, clusters map[string]int) *featureIDs {
	fi := &featureIDs{}
	byName := map[string]template{}
	for t, tp := range templates {
		fi.flags[t] = -1
		if tp.fam == famFlag {
			if id, ok := m.FeatureID(tp.name); ok {
				fi.flags[t] = id
			}
		} else if tp.fam != famEmb {
			byName[strings.TrimSuffix(tp.name, "=")] = template(t)
		}
	}
	for f := famFlag + 1; f < nFamilies; f++ {
		fi.rows[f] = map[string]*idRow{}
	}
	set := func(t template, value string, id int32) {
		tp := &templates[t]
		row := fi.rows[tp.fam][value]
		if row == nil {
			row = &idRow{-1, -1, -1, -1, -1}
			fi.rows[tp.fam][value] = row
		}
		row[tp.slot] = id
	}
	for f, id := range m.Features() {
		name, value, ok := strings.Cut(f, "=")
		if t, known := byName[name]; ok && known {
			set(t, value, id)
		}
	}
	// Look each cluster's emb= feature up once.
	embIDs := map[int]int32{}
	for w, cl := range clusters {
		id, ok := embIDs[cl]
		if !ok {
			id = -1
			if known, ok := m.FeatureID(templates[tEmb].name + strconv.Itoa(cl)); ok {
				id = known
			}
			embIDs[cl] = id
		}
		if id >= 0 {
			set(tEmb, w, id)
		}
	}
	return fi
}

// tokenRows are one token's rows, by family: nil where the model knows no
// feature of the token's value.
type tokenRows [nFamilies]*idRow

// resolve looks the rows of every token of the sentence up into out,
// reusing its storage: one lookup per token and family.
func (fi *featureIDs) resolve(st *sentenceTokens, out []tokenRows) []tokenRows {
	out = slices.Grow(out[:0], len(st.toks))[:len(st.toks)]
	for j := range out {
		for f := famFlag + 1; f < nFamilies; f++ {
			out[j][f] = fi.rows[f][st.value(f, j)]
		}
	}
	return out
}

// idSink collects the ids of one token's features, reading each off the
// rows of the token it names.
type idSink struct {
	fi     *featureIDs
	tokens []tokenRows
	ids    []int32
}

func (s *idSink) Add(t template, j int) {
	tp := &templates[t]
	id := s.fi.flags[t]
	if tp.fam != famFlag {
		id = -1
		if row := s.tokens[j][tp.fam]; row != nil {
			id = row[tp.slot]
		}
	}
	if id >= 0 {
		s.ids = append(s.ids, id)
	}
}
