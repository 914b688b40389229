// Package ner implements SecurityKG's security-related entity recognition:
// IOC protection, gazetteer matching, data-programming label synthesis, a
// CRF sequence model with lemma/POS/shape/embedding-cluster features, and
// a regex+gazetteer baseline for comparison (the paper claims the CRF
// outperforms the naive baseline and generalizes to unseen entities).
package ner

import (
	"strconv"
	"strings"

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

// featureSink receives the sparse CRF features of one token. A feature is
// the string template+value; it is handed over in two parts so a sink that
// only looks it up (crf.Decoder) never has to build it.
type featureSink interface {
	Add(template, value string)
}

// emit hands the features of token i of the sentence to sink, optionally
// adding embedding cluster features. The order is part of the model: a
// token's score is summed in it.
func (st *sentenceTokens) emit(i int, clusters map[string]int, sink featureSink) {
	t := st.toks[i]
	lw := st.lower[i]
	sink.Add("bias", "")
	sink.Add("w=", lw)
	sink.Add("lemma=", t.Lemma)
	sink.Add("pos=", t.POS)
	sink.Add("shape=", t.Shape)
	if n := len(lw); n >= 3 {
		sink.Add("pre3=", lw[:3])
		sink.Add("suf3=", lw[n-3:])
	}
	if i == 0 {
		sink.Add("first", "")
	}
	if t.Text != "" && t.Text[0] >= 'A' && t.Text[0] <= 'Z' {
		sink.Add("cap", "")
		if len(t.Text) > 1 && isUpper(t.Text) {
			sink.Add("allcaps", "")
		}
	}
	if strings.ContainsAny(lw, "0123456789") {
		sink.Add("hasdigit", "")
	}
	if st.placeholder[i] {
		sink.Add("iocplaceholder", "")
	}
	if c := st.gazClass[i]; c != "" {
		sink.Add("gaz=", string(c))
		if st.gazBegin[i] {
			sink.Add("gazB=", string(c))
		}
	}
	if clusters != nil {
		if cl, ok := clusters[lw]; ok {
			sink.Add("emb=", strconv.Itoa(cl))
		}
	}
	// Context window.
	if i > 0 {
		p := st.toks[i-1]
		sink.Add("-1w=", st.lower[i-1])
		sink.Add("-1pos=", p.POS)
		sink.Add("-1lemma=", p.Lemma)
	} else {
		sink.Add("-1w=<s>", "")
	}
	if i > 1 {
		sink.Add("-2pos=", st.toks[i-2].POS)
		sink.Add("-2lemma=", st.toks[i-2].Lemma)
	}
	if i+1 < len(st.toks) {
		n := st.toks[i+1]
		sink.Add("+1w=", st.lower[i+1])
		sink.Add("+1pos=", n.POS)
		sink.Add("+1lemma=", n.Lemma)
	} else {
		sink.Add("+1w=</s>", "")
	}
	if i+2 < len(st.toks) {
		sink.Add("+2pos=", st.toks[i+2].POS)
		sink.Add("+2lemma=", st.toks[i+2].Lemma)
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

// featureStrings collects features as the strings a CRF is trained on.
type featureStrings []string

func (f *featureStrings) Add(template, value string) { *f = append(*f, template+value) }

// featureMatrix computes the feature strings of every token of the
// sentence.
func (st *sentenceTokens) featureMatrix(clusters map[string]int) [][]string {
	out := make([][]string, len(st.toks))
	for i := range st.toks {
		fs := make(featureStrings, 0, 24)
		st.emit(i, clusters, &fs)
		out[i] = fs
	}
	return out
}
