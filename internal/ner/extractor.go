package ner

import (
	"fmt"
	"strings"

	"securitykg/internal/crf"
	"securitykg/internal/embed"
	"securitykg/internal/gazetteer"
	"securitykg/internal/ioc"
	"securitykg/internal/ontology"
	"securitykg/internal/textproc"
)

// Entity is one recognized entity occurrence in a text.
type Entity struct {
	Type   ontology.EntityType `json:"type"`
	Name   string              `json:"name"`
	Source string              `json:"source"` // "crf", "ioc", or "gazetteer"
}

// Extractor is the trained NER pipeline: IOC protection + gazetteer
// features + CRF decoding, with IOC regex recognition alongside.
type Extractor struct {
	model  *crf.Model
	labels []bioLabel // the model's labels, by label index
	lookup *gazetteer.Lookup
	feats  *featureIDs
}

// TrainOptions configure NER training.
type TrainOptions struct {
	Strategy LabelingStrategy // default StrategyLabelModel
	Epochs   int              // CRF epochs (default 6)
	Clusters map[string]int   // optional embedding cluster feature map
	Seed     int64
}

// Train builds an extractor from raw unlabeled report texts using data
// programming: labeling functions synthesize token labels, then a CRF is
// trained on the synthesized corpus. This reproduces the paper's pipeline:
// no manual annotations are consumed.
func Train(texts []string, opts TrainOptions) (*Extractor, error) {
	if opts.Strategy == "" {
		opts.Strategy = StrategyLabelModel
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 6
	}
	lookup := gazetteer.NewLookup()
	var sents []sentenceTokens
	var docRanges [][2]int // [start, end) sentence indices per document
	for _, text := range texts {
		prot := ioc.Protect(text)
		start := len(sents)
		for _, s := range textproc.SplitSentences(prot.Protected) {
			st := prepareSentence(s.Text, prot, lookup)
			if len(st.toks) > 0 {
				sents = append(sents, st)
			}
		}
		if len(sents) > start {
			docRanges = append(docRanges, [2]int{start, len(sents)})
		}
	}
	if len(sents) == 0 {
		return nil, fmt.Errorf("ner: no sentences in training corpus")
	}
	labels, err := synthesizeLabels(sents, opts.Strategy)
	if err != nil {
		return nil, fmt.Errorf("ner: label synthesis: %w", err)
	}
	// Document-level consistency: an entity mention labeled in one
	// sentence (typically beside a contextual cue) labels identical
	// tokens across the whole document, so the CRF sees the entity in
	// ordinary subject positions too.
	for _, dr := range docRanges {
		propagateDocLabels(sents[dr[0]:dr[1]], labels[dr[0]:dr[1]])
	}
	seqs := make([]crf.Sequence, 0, len(sents))
	for si := range sents {
		seqs = append(seqs, crf.Sequence{
			Features: sents[si].featureMatrix(opts.Clusters),
			Labels:   toBIO(labels[si]),
		})
	}
	model, err := crf.Train(seqs, crf.TrainConfig{Epochs: opts.Epochs, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("ner: crf training: %w", err)
	}
	return newExtractor(model, lookup, opts.Clusters), nil
}

// EmbeddingClusters learns skip-gram word embeddings on the training
// corpus and discretizes them into k-means cluster ids, the Clusters map
// the CRF consumes as "emb=<id>" features (the paper lists word embeddings
// among the CRF features).
func EmbeddingClusters(texts []string, seed int64) (map[string]int, error) {
	var sentences [][]string
	for _, text := range texts {
		prot := ioc.Protect(text)
		for _, s := range textproc.SplitSentences(prot.Protected) {
			var words []string
			for _, tok := range textproc.Tokenize(s.Text) {
				if !tok.IsPunct() {
					words = append(words, strings.ToLower(tok.Text))
				}
			}
			if len(words) > 1 {
				sentences = append(sentences, words)
			}
		}
	}
	emb, err := embed.Train(sentences, seed)
	if err != nil {
		return nil, fmt.Errorf("ner: embedding training: %w", err)
	}
	return emb.Clusters(32, 20, seed), nil
}

func newExtractor(m *crf.Model, lookup *gazetteer.Lookup, clusters map[string]int) *Extractor {
	return &Extractor{model: m, labels: parseLabels(m.Labels()), lookup: lookup, feats: newFeatureIDs(m, clusters)}
}

// NewFromModel wraps a pre-trained CRF model into an extractor.
func NewFromModel(m *crf.Model, clusters map[string]int) *Extractor {
	return newExtractor(m, gazetteer.NewLookup(), clusters)
}

// Model exposes the underlying CRF for persistence.
func (e *Extractor) Model() *crf.Model { return e.model }

// Extract recognizes entities in text: IOCs via the scanner (exact, typed)
// and higher-level entities via the CRF over IOC-protected text.
func (e *Extractor) Extract(text string) []Entity {
	return e.entities(e.newAnalyzer().document(ioc.Protect(text)))
}

// iocEntities converts protected IOC matches into typed entities.
func iocEntities(prot *ioc.Protection) []Entity {
	var out []Entity
	for _, m := range prot.Matches() {
		out = append(out, Entity{
			Type:   m.Kind.EntityType(),
			Name:   m.Value,
			Source: "ioc",
		})
	}
	return out
}

func dedupeEntities(es []Entity) []Entity {
	type key struct {
		typ  ontology.EntityType
		name string
	}
	seen := make(map[key]bool, len(es))
	out := es[:0]
	for _, e := range es {
		k := key{e.Type, strings.ToLower(e.Name)}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// Baseline is the naive regex/gazetteer entity recognizer the paper
// compares against: exact curated-list matching plus IOC regexes. It has
// no ability to generalize to entities outside the lists.
type Baseline struct {
	lookup *gazetteer.Lookup
}

// NewBaseline builds the baseline recognizer.
func NewBaseline() *Baseline { return &Baseline{lookup: gazetteer.NewLookup()} }

// Extract recognizes only curated names and IOC patterns.
func (b *Baseline) Extract(text string) []Entity {
	prot := ioc.Protect(text)
	out := iocEntities(prot)
	for _, s := range textproc.SplitSentences(prot.Protected) {
		st := prepareSentence(s.Text, prot, b.lookup)
		for i := 0; i < len(st.toks); i++ {
			if !st.gazBegin[i] {
				continue
			}
			cls := st.gazClass[i]
			j := i + 1
			for j < len(st.toks) && st.gazClass[j] == cls && !st.gazBegin[j] {
				j++
			}
			if et, ok := EntityTypeOf(cls); ok {
				words := make([]string, 0, j-i)
				for k := i; k < j; k++ {
					words = append(words, st.toks[k].Text)
				}
				out = append(out, Entity{Type: et, Name: strings.Join(words, " "), Source: "gazetteer"})
			}
			i = j - 1
		}
	}
	return dedupeEntities(out)
}
