// Package search implements the keyword-search substrate that plays the
// role Elasticsearch plays in the paper's UI: an in-memory inverted index
// with BM25 ranking, per-field boosts, and incremental add/remove. The
// demo's "wannacry" and "cozyduke" keyword scenarios run on this index.
package search

import (
	"math"
	"sort"
	"strings"
	"sync"

	"securitykg/internal/textproc"
)

// Document is one indexable item: an opaque ID plus named text fields.
type Document struct {
	ID     string
	Fields map[string]string
}

// Hit is one ranked search result.
type Hit struct {
	ID    string
	Score float64
}

// bm25 parameters (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

type posting struct {
	doc string
	tf  float64 // boost-weighted term frequency
}

// Index is a thread-safe inverted index with BM25 scoring.
type Index struct {
	mu       sync.RWMutex
	boosts   map[string]float64 // field -> boost (default 1.0)
	postings map[string][]posting
	docLen   map[string]float64 // boost-weighted token count per doc
	totalLen float64
	docs     int
	// terms per doc kept for removal.
	docTerms map[string]map[string]float64
}

// NewIndex creates an index. boosts maps field names to score multipliers;
// unlisted fields get boost 1.0. Pass nil for uniform weighting.
func NewIndex(boosts map[string]float64) *Index {
	b := make(map[string]float64, len(boosts))
	for k, v := range boosts {
		b[k] = v
	}
	return &Index{
		boosts:   b,
		postings: make(map[string][]posting),
		docLen:   make(map[string]float64),
		docTerms: make(map[string]map[string]float64),
	}
}

// eachTerm calls fn with each index term of text in order: the lowercase
// lemma of every token that is not pure punctuation or a stopword. It
// walks the token spans itself, so it builds no token or term slice.
func eachTerm(text string, fn func(term string)) {
	for start, end := textproc.NextSpan(text, 0); start < end; start, end = textproc.NextSpan(text, end) {
		tok := text[start:end]
		if textproc.IsPunct(tok) {
			continue
		}
		w := strings.ToLower(tok)
		if textproc.Stopwords[w] || len(w) == 0 {
			continue
		}
		lem := textproc.Lemma(w, "")
		if lem == "" {
			lem = w
		}
		fn(lem)
	}
}

// Add indexes a document, replacing any previous document with the same ID.
// Its fields are analyzed before the index is locked: only the postings
// update holds the lock.
func (ix *Index) Add(doc Document) {
	terms := make(map[string]float64)
	var dlen float64
	for field, text := range doc.Fields {
		boost := 1.0
		if b, ok := ix.boosts[field]; ok {
			boost = b
		}
		eachTerm(text, func(term string) {
			terms[term] += boost
			dlen += boost
		})
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docTerms[doc.ID]; ok {
		ix.removeLocked(doc.ID)
	}
	if len(terms) == 0 {
		// Still track the doc so Len and replacement semantics hold.
		ix.docTerms[doc.ID] = terms
		ix.docLen[doc.ID] = 0
		ix.docs++
		return
	}
	for term, tf := range terms {
		ix.postings[term] = append(ix.postings[term], posting{doc: doc.ID, tf: tf})
	}
	ix.docTerms[doc.ID] = terms
	ix.docLen[doc.ID] = dlen
	ix.totalLen += dlen
	ix.docs++
}

// Remove deletes a document from the index. Unknown IDs are a no-op.
func (ix *Index) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

func (ix *Index) removeLocked(id string) {
	terms, ok := ix.docTerms[id]
	if !ok {
		return
	}
	for term := range terms {
		ps := ix.postings[term]
		for i, p := range ps {
			if p.doc == id {
				ix.postings[term] = append(ps[:i], ps[i+1:]...)
				break
			}
		}
		if len(ix.postings[term]) == 0 {
			delete(ix.postings, term)
		}
	}
	ix.totalLen -= ix.docLen[id]
	delete(ix.docLen, id)
	delete(ix.docTerms, id)
	ix.docs--
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs
}

// Search runs a BM25-ranked keyword query and returns the top k hits
// (all hits if k <= 0). Ties break by document ID for determinism.
func (ix *Index) Search(query string, k int) []Hit {
	var terms []string
	eachTerm(query, func(term string) { terms = append(terms, term) })
	if len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.docs == 0 {
		return nil
	}
	avgLen := ix.totalLen / float64(ix.docs)
	if avgLen == 0 {
		return nil
	}
	scores := make(map[string]float64)
	for _, term := range terms {
		ps := ix.postings[term]
		if len(ps) == 0 {
			continue
		}
		idf := math.Log(1 + (float64(ix.docs)-float64(len(ps))+0.5)/(float64(len(ps))+0.5))
		for _, p := range ps {
			dl := ix.docLen[p.doc]
			denom := p.tf + bm25K1*(1-bm25B+bm25B*dl/avgLen)
			scores[p.doc] += idf * (p.tf * (bm25K1 + 1)) / denom
		}
	}
	hits := make([]Hit, 0, len(scores))
	for id, sc := range scores {
		hits = append(hits, Hit{ID: id, Score: sc})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
