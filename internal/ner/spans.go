package ner

import (
	"securitykg/internal/depparse"
	"securitykg/internal/ioc"
	"securitykg/internal/ontology"
	"securitykg/internal/textproc"
)

// SentenceResult is the span-level output the relation extractor consumes:
// the annotated tokens of one sentence plus entity spans anchored to token
// positions (CRF spans and IOC placeholder spans merged).
type SentenceResult struct {
	Tokens []textproc.Token
	Spans  []depparse.EntitySpan
}

// ExtractSpans runs the full NER pipeline, returning per-sentence token
// and span detail: IOC placeholder spans, CRF spans and the spans the
// document-consistency pass adds.
func (e *Extractor) ExtractSpans(text string) []SentenceResult {
	return e.spans(e.newAnalyzer().document(ioc.Protect(text)))
}

func joinTokens(toks []textproc.Token) string {
	switch len(toks) {
	case 0:
		return ""
	case 1:
		return toks[0].Text
	}
	out := toks[0].Text
	for _, t := range toks[1:] {
		out += " " + t.Text
	}
	return out
}

// ExtractRelations runs span extraction and the dependency-based relation
// extractor over every sentence, returning ontology relations.
func (e *Extractor) ExtractRelations(text string) []ontology.Relation {
	return relations(e.ExtractSpans(text))
}
