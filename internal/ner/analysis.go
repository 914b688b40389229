package ner

import (
	"strings"

	"securitykg/internal/crf"
	"securitykg/internal/depparse"
	"securitykg/internal/gazetteer"
	"securitykg/internal/ioc"
	"securitykg/internal/ontology"
	"securitykg/internal/textproc"
)

// The extractor's one NLP pass: protect the IOCs of a text, split the
// protected text into sentences, and for each sentence annotate, tag with
// the gazetteer, resolve each token's feature ids once and decode with
// the CRF. Everything the extractor returns — entity lists, token spans,
// relations — is read off the resulting document; nothing else runs the
// models.

// bioLabel is a CRF label taken apart: 'B' or 'I' and the class it opens
// or continues, or kind 0 for O and anything else.
type bioLabel struct {
	kind  byte
	class gazetteer.Class
}

func parseLabels(labels []string) []bioLabel {
	out := make([]bioLabel, len(labels))
	for i, l := range labels {
		if strings.HasPrefix(l, "B-") || strings.HasPrefix(l, "I-") {
			out[i] = bioLabel{l[0], gazetteer.Class(l[2:])}
		}
	}
	return out
}

// sentence is one analyzed sentence: its prepared tokens and the label
// (an index into the extractor's labels) decoded for each.
type sentence struct {
	sentenceTokens
	tags []int
	// A sentence's analysis depends on its protected text and on which of
	// its tokens are placeholders, that is on how many IOCs the document
	// protects. nIOC is that count; ordinalFree says the text holds no
	// placeholder at all, so the count does not matter.
	nIOC        int
	ordinalFree bool
}

// document is the analysis of one protected text.
type document struct {
	prot  *ioc.Protection
	sents []*sentence
}

// analyzer runs the pass. Its decoder's buffers serve every sentence, and
// memo, when set, lets a second document over partly the same text (a
// report's body after its title+body) take over the sentences it shares
// with the first instead of analyzing them again.
type analyzer struct {
	e    *Extractor
	dec  *crf.Decoder
	sink idSink
	memo map[string]*sentence
}

func (e *Extractor) newAnalyzer() *analyzer {
	return &analyzer{e: e, dec: e.model.NewDecoder(), sink: idSink{fi: e.feats}}
}

func (a *analyzer) document(prot *ioc.Protection) document {
	doc := document{prot: prot}
	for _, s := range textproc.SplitSentences(prot.Protected) {
		sent := a.memo[s.Text]
		if sent == nil || !sent.ordinalFree && sent.nIOC != prot.Len() {
			st := prepareSentence(s.Text, prot, a.e.lookup)
			if len(st.toks) == 0 {
				continue
			}
			a.dec.Reset()
			a.sink.tokens = a.e.feats.resolve(&st, a.sink.tokens)
			for i := range st.toks {
				a.sink.ids = a.sink.ids[:0]
				st.emit(i, &a.sink)
				a.dec.AddIDs(a.sink.ids...)
				a.dec.Next()
			}
			sent = &sentence{
				sentenceTokens: st,
				tags:           append([]int(nil), a.dec.Viterbi()...),
				nIOC:           prot.Len(),
				ordinalFree:    !strings.Contains(s.Text, ioc.PlaceholderPrefix),
			}
			if a.memo != nil {
				a.memo[s.Text] = sent
			}
		}
		doc.sents = append(doc.sents, sent)
	}
	return doc
}

// crfSpans calls yield for every maximal B-I* run of the sentence's tags
// whose class is an entity type: tokens [i, j) of type et.
func (e *Extractor) crfSpans(s *sentence, yield func(i, j int, et ontology.EntityType)) {
	for i := 0; i < len(s.tags); {
		l := e.labels[s.tags[i]]
		if l.kind != 'B' {
			i++
			continue
		}
		j := i + 1
		for j < len(s.tags) && e.labels[s.tags[j]] == (bioLabel{'I', l.class}) {
			j++
		}
		if et, ok := EntityTypeOf(l.class); ok {
			yield(i, j, et)
		}
		i = j
	}
}

// entities lists the document's entities: its IOCs (exact, typed) in text
// order, then the CRF's spans sentence by sentence, IOC placeholders
// inside span text restored, duplicates dropped.
func (e *Extractor) entities(doc document) []Entity {
	out := iocEntities(doc.prot)
	for _, s := range doc.sents {
		e.crfSpans(s, func(i, j int, et ontology.EntityType) {
			out = append(out, Entity{Type: et, Name: doc.prot.Restore(joinTokens(s.toks[i:j])), Source: "crf"})
		})
	}
	return dedupeEntities(out)
}

// spans gives per-sentence token and span detail. IOC placeholders become
// typed entity spans (with the original IOC value as the name); CRF spans
// cover the remaining entity classes. Overlaps resolve in favor of IOC
// spans.
func (e *Extractor) spans(doc document) []SentenceResult {
	prot := doc.prot
	if len(doc.sents) == 0 {
		return nil
	}
	out := make([]SentenceResult, 0, len(doc.sents))
	coveredAll := make([][]bool, 0, len(doc.sents))
	// knownEnts maps a lowercased single-token surface form found as an
	// entity anywhere in the document to its type, enabling the
	// document-consistency pass below.
	knownEnts := map[string]ontology.EntityType{}
	for _, s := range doc.sents {
		res := SentenceResult{Tokens: s.toks}
		covered := make([]bool, len(s.toks))
		// IOC placeholder spans first (authoritative).
		for i, tok := range s.toks {
			if !s.placeholder[i] {
				continue
			}
			m, _ := prot.IsPlaceholder(tok.Text)
			res.Spans = append(res.Spans, depparse.EntitySpan{
				Type: m.Kind.EntityType(), Name: m.Value, Start: i, End: i + 1,
			})
			covered[i] = true
		}
		// CRF spans for the higher-level entity classes.
		e.crfSpans(s, func(i, j int, et ontology.EntityType) {
			for k := i; k < j; k++ {
				if covered[k] {
					return
				}
			}
			res.Spans = append(res.Spans, depparse.EntitySpan{
				Type: et, Name: prot.Restore(joinTokens(s.toks[i:j])), Start: i, End: j,
			})
			for k := i; k < j; k++ {
				covered[k] = true
			}
			if j == i+1 && propagatable(s.toks[i].Text) {
				knownEnts[s.lower[i]] = et
			}
		})
		out = append(out, res)
		coveredAll = append(coveredAll, covered)
	}
	// Document-consistency pass: an entity recognized in one sentence
	// (usually beside a contextual cue) marks identical uncovered tokens
	// in every other sentence.
	if len(knownEnts) == 0 {
		return out
	}
	for si, s := range doc.sents {
		for i, tok := range s.toks {
			if coveredAll[si][i] || !propagatable(tok.Text) {
				continue
			}
			if et, ok := knownEnts[s.lower[i]]; ok {
				out[si].Spans = append(out[si].Spans, depparse.EntitySpan{
					Type: et, Name: prot.Restore(tok.Text), Start: i, End: i + 1,
				})
				coveredAll[si][i] = true
			}
		}
	}
	return out
}

// relations runs the dependency-based relation extractor over every
// sentence's tokens and spans.
func relations(sents []SentenceResult) []ontology.Relation {
	var out []ontology.Relation
	for _, sent := range sents {
		for _, tr := range depparse.ExtractRelations(sent.Tokens, sent.Spans) {
			out = append(out, ontology.Relation{
				Src:   ontology.Entity{Type: tr.Src.Type, Name: tr.Src.Name},
				Type:  tr.Rel,
				Dst:   ontology.Entity{Type: tr.Dst.Type, Name: tr.Dst.Name},
				Attrs: map[string]string{"verb": tr.Verb},
			})
		}
	}
	return out
}

// Analysis is the pass over one report, made once for both of the
// pipeline's extractors: the entity list is read off title+body, the
// relations off the body alone (a title is a headline, not a sentence to
// parse for verbs, and the document-consistency pass must see body
// sentences only).
type Analysis struct {
	ext      *Extractor
	text     string
	entities []Entity
	body     document
}

// Analyze runs the pass over a report. Entities is then what
// Extract(title + ".\n" + text) returns and Relations what
// ExtractRelations(text) returns, element for element.
//
// The two texts are protected by one scan and share every sentence whose
// analysis cannot differ between them. It can differ: a placeholder's
// ordinal is part of its word, words are features, and an IOC in the title
// shifts every ordinal of the body; and the title's last words may run on
// into the body's first sentence. Such sentences are analyzed once per
// text.
func (e *Extractor) Analyze(title, text string) *Analysis {
	head := title + ".\n"
	whole := ioc.Protect(head + text)
	a := e.newAnalyzer()
	a.memo = make(map[string]*sentence)
	entities := e.entities(a.document(whole))
	body := a.document(whole.From(len(ioc.Refang(head))))
	return &Analysis{ext: e, text: text, entities: entities, body: body}
}

// Of reports whether the analysis was made by e over a report with this
// body text.
func (a *Analysis) Of(e *Extractor, text string) bool { return a.ext == e && a.text == text }

// Entities returns the entities of the report's title and body.
func (a *Analysis) Entities() []Entity { return a.entities }

// Relations returns the relations of the report's body.
func (a *Analysis) Relations() []ontology.Relation { return relations(a.ext.spans(a.body)) }
