package experiments

import (
	"fmt"
	"strings"

	"securitykg/internal/depparse"
	"securitykg/internal/ioc"
	"securitykg/internal/ner"
	"securitykg/internal/ontology"
	"securitykg/internal/sources"
	"securitykg/internal/textproc"
)

// truthDocs samples reports (text + ground truth) from the synthetic web.
func truthDocs(seed int64, n int, fromIdx int) []*sources.Truth {
	web := sources.NewWeb(seed, sources.DefaultSources(fromIdx+n/40+2))
	var out []*sources.Truth
	for _, spec := range web.Sources() {
		for i := fromIdx; len(out) < n && i < spec.Reports; i++ {
			out = append(out, web.GenerateTruth(spec, i))
		}
	}
	return out
}

func truthText(t *sources.Truth) string { return strings.Join(t.Paragraphs, "\n") }

// goldEntities converts ground truth into scoreable entity sets, filtered
// to the types the recognizer under test is responsible for.
func goldEntities(t *sources.Truth, types map[ontology.EntityType]bool) []ner.Entity {
	var out []ner.Entity
	for _, e := range t.Entities {
		if types == nil || types[e.Type] {
			out = append(out, ner.Entity{Type: e.Type, Name: e.Name})
		}
	}
	return out
}

// crfTypes are the entity types extracted by the CRF (not the IOC scanner).
var crfTypes = map[ontology.EntityType]bool{
	ontology.TypeMalware:         true,
	ontology.TypeMalwareFamily:   true,
	ontology.TypeThreatActor:     true,
	ontology.TypeTechnique:       true,
	ontology.TypeTool:            true,
	ontology.TypeSoftware:        true,
	ontology.TypeMalwarePlatform: true,
}

// NERQuality reproduces E4 (Section 2.4): CRF vs regex/gazetteer baseline
// on held-out reports, split into seen (curated names) and unseen
// (generated names) subsets — the generalization claim.
func NERQuality(trainDocs, testDocs int, seed int64) (*Table, error) {
	ext, err := TrainNER(seed, trainDocs)
	if err != nil {
		return nil, err
	}
	base := ner.NewBaseline()
	// Held-out reports: indexes beyond the training sample.
	docs := truthDocs(seed, testDocs, trainDocs/40+3)

	malOnly := map[ontology.EntityType]bool{ontology.TypeMalware: true}
	score := func(extract func(string) []ner.Entity, unseenOnly bool,
		types map[ontology.EntityType]bool) (ner.Metrics, int, error) {
		var pred, gold [][]ner.Entity
		n := 0
		for _, d := range docs {
			if unseenOnly != d.UnseenMalware {
				continue
			}
			n++
			var p []ner.Entity
			for _, e := range extract(truthText(d)) {
				if types[e.Type] {
					p = append(p, e)
				}
			}
			pred = append(pred, p)
			gold = append(gold, goldEntities(d, types))
		}
		m, err := ner.Evaluate(pred, gold)
		return m, n, err
	}

	t := &Table{
		ID:      "E4",
		Title:   "security NER: CRF (data programming) vs regex/gazetteer baseline",
		Columns: []string{"system", "subset", "docs", "P", "R", "F1"},
	}
	for _, sys := range []struct {
		name    string
		extract func(string) []ner.Entity
	}{
		{"crf", ext.Extract},
		{"baseline", base.Extract},
	} {
		for _, sub := range []struct {
			name   string
			unseen bool
			types  map[ontology.EntityType]bool
		}{
			{"all-types/seen", false, crfTypes},
			{"all-types/unseen-doc", true, crfTypes},
			{"malware/seen", false, malOnly},
			{"malware/unseen", true, malOnly},
		} {
			m, n, err := score(sys.extract, sub.unseen, sub.types)
			if err != nil {
				return nil, err
			}
			t.AddRow(sys.name, sub.name, n, m.Precision, m.Recall, m.F1)
		}
	}
	t.Notes = append(t.Notes,
		"'malware/unseen' scores only the malware names absent from every curated list — the generalization claim",
		"paper claim: the CRF 'can outperform a naive entity recognition solution that relies on regex rules, and generalize to entities that are not in the training set'")
	return t, nil
}

func filterTypes(es []ner.Entity) []ner.Entity {
	var out []ner.Entity
	for _, e := range es {
		if crfTypes[e.Type] {
			out = append(out, e)
		}
	}
	return out
}

// IOCProtection reproduces E5 (Section 2.4's "IOC protection"): token
// integrity and sentence segmentation with protection on vs off.
func IOCProtection(docsN int, seed int64) (*Table, error) {
	docs := truthDocs(seed, docsN, 0)
	var intactRaw, intactProt, totalIOC int
	var sentRaw, sentProt, sentTruth int
	for _, d := range docs {
		text := truthText(d)
		prot := ioc.Protect(text)
		refanged := ioc.Refang(text)

		// Sentence counts: ground truth is one sentence per period-joined
		// template line; approximate with the protected segmentation as
		// reference quality measure vs raw.
		sentRaw += len(textproc.SplitSentences(refanged))
		sentProt += len(textproc.SplitSentences(prot.Protected))
		for _, p := range d.Paragraphs {
			sentTruth += strings.Count(p, ". ") + 1
		}

		// Token integrity: each ground-truth IOC should be exactly one
		// token.
		iocVals := map[string]bool{}
		for _, e := range d.Entities {
			if ontology.IsIOCType(e.Type) {
				iocVals[e.Name] = true
				totalIOC++
			}
		}
		rawTokens := map[string]bool{}
		for _, tok := range textproc.Tokenize(refanged) {
			rawTokens[tok.Text] = true
		}
		protTokens := map[string]bool{}
		for _, tok := range textproc.Tokenize(prot.Protected) {
			if m, ok := prot.IsPlaceholder(tok.Text); ok {
				protTokens[m.Value] = true
			}
		}
		for v := range iocVals {
			if rawTokens[v] {
				intactRaw++
			}
			if protTokens[v] {
				intactProt++
			}
		}
	}
	t := &Table{
		ID:      "E5",
		Title:   "IOC protection: token integrity and sentence segmentation",
		Columns: []string{"metric", "raw text", "with protection"},
	}
	t.AddRow("IOCs surviving as one token",
		fmt.Sprintf("%d/%d (%.1f%%)", intactRaw, totalIOC, 100*float64(intactRaw)/float64(totalIOC)),
		fmt.Sprintf("%d/%d (%.1f%%)", intactProt, totalIOC, 100*float64(intactProt)/float64(totalIOC)))
	t.AddRow("sentences detected", sentRaw, sentProt)
	t.AddRow("sentences expected", sentTruth, sentTruth)
	t.Notes = append(t.Notes,
		"dots inside IPs/URLs/registry keys fragment tokens and split sentences without protection")
	return t, nil
}

// LabelingStrategies reproduces E6: downstream NER F1 by training-label
// strategy — generative label model (data programming) vs majority vote vs
// gazetteer-only labels.
func LabelingStrategies(trainDocs, testDocs int, seed int64) (*Table, error) {
	train := truthDocs(seed, trainDocs, 0)
	test := truthDocs(seed, testDocs, trainDocs/40+3)
	var texts []string
	for _, d := range train {
		texts = append(texts, truthText(d))
	}
	t := &Table{
		ID:      "E6",
		Title:   "data programming ablation: label synthesis strategy vs NER quality",
		Columns: []string{"strategy", "subset", "P", "R", "F1"},
	}
	for _, strat := range []ner.LabelingStrategy{
		ner.StrategyLabelModel, ner.StrategyMajority, ner.StrategyGazetteerOnly,
	} {
		ext, err := ner.Train(texts, ner.TrainOptions{Strategy: strat, Epochs: 5, Seed: seed})
		if err != nil {
			return nil, err
		}
		malOnly := map[ontology.EntityType]bool{ontology.TypeMalware: true}
		for _, sub := range []struct {
			name   string
			unseen bool
			types  map[ontology.EntityType]bool
		}{
			{"all-types", false, crfTypes},
			{"malware/unseen", true, malOnly},
		} {
			var pred, gold [][]ner.Entity
			for _, d := range test {
				if d.UnseenMalware != sub.unseen {
					continue
				}
				var p []ner.Entity
				for _, e := range ext.Extract(truthText(d)) {
					if sub.types[e.Type] {
						p = append(p, e)
					}
				}
				pred = append(pred, p)
				gold = append(gold, goldEntities(d, sub.types))
			}
			m, err := ner.Evaluate(pred, gold)
			if err != nil {
				return nil, err
			}
			t.AddRow(string(strat), sub.name, m.Precision, m.Recall, m.F1)
		}
	}
	t.Notes = append(t.Notes,
		"gazetteer-only labels are precise on curated names but give the CRF no unseen-entity supervision")
	return t, nil
}

// EmbeddingFeatures reproduces E14 (an extension ablation): NER quality
// with and without embedding-cluster CRF features. The paper lists word
// embeddings among the CRF's features; this measures their contribution.
func EmbeddingFeatures(trainDocs, testDocs int, seed int64) (*Table, error) {
	train := truthDocs(seed, trainDocs, 0)
	test := truthDocs(seed, testDocs, trainDocs/40+3)
	var texts []string
	for _, d := range train {
		texts = append(texts, truthText(d))
	}
	clusters, err := ner.EmbeddingClusters(texts, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E14",
		Title:   "embedding-cluster CRF features ablation",
		Columns: []string{"features", "P", "R", "F1"},
	}
	for _, cfg := range []struct {
		name     string
		clusters map[string]int
	}{
		{"base", nil},
		{"base+embeddings", clusters},
	} {
		ext, err := ner.Train(texts, ner.TrainOptions{Epochs: 5, Seed: seed, Clusters: cfg.clusters})
		if err != nil {
			return nil, err
		}
		var pred, gold [][]ner.Entity
		for _, d := range test {
			pred = append(pred, filterTypes(ext.Extract(truthText(d))))
			gold = append(gold, goldEntities(d, crfTypes))
		}
		m, err := ner.Evaluate(pred, gold)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.name, m.Precision, m.Recall, m.F1)
	}
	t.Notes = append(t.Notes,
		"cluster ids from skip-gram embeddings trained on the same unlabeled corpus",
		"lexical/gazetteer/context features already saturate this synthetic corpus; embeddings matter more on noisier real-world text")
	return t, nil
}

// RelationExtraction reproduces E7: dependency-based relation extraction
// vs a nearest-verb co-occurrence baseline, scored against ground-truth
// triples.
func RelationExtraction(docsN int, seed int64) (*Table, error) {
	ext, err := TrainNER(seed, 120)
	if err != nil {
		return nil, err
	}
	docs := truthDocs(seed, docsN, 5)

	relKey := func(st ontology.EntityType, sn string, rel ontology.RelationType,
		dt ontology.EntityType, dn string) string {
		return strings.ToLower(fmt.Sprintf("%s|%s|%s|%s|%s", st, sn, rel, dt, dn))
	}

	score := func(extract func(string) []ontology.Relation) (p, r, f float64) {
		var tp, fp, fn int
		for _, d := range docs {
			pred := map[string]bool{}
			for _, rel := range extract(truthText(d)) {
				pred[relKey(rel.Src.Type, rel.Src.Name, rel.Type, rel.Dst.Type, rel.Dst.Name)] = true
			}
			gold := map[string]bool{}
			for _, rel := range d.Relations {
				gold[relKey(rel.Src.Type, rel.Src.Name, rel.Type, rel.Dst.Type, rel.Dst.Name)] = true
			}
			for k := range pred {
				if gold[k] {
					tp++
				} else {
					fp++
				}
			}
			for k := range gold {
				if !pred[k] {
					fn++
				}
			}
		}
		if tp+fp > 0 {
			p = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			r = float64(tp) / float64(tp+fn)
		}
		if p+r > 0 {
			f = 2 * p * r / (p + r)
		}
		return p, r, f
	}

	depExtract := ext.ExtractRelations
	coocExtract := func(text string) []ontology.Relation {
		return coOccurrenceRelations(ext, text)
	}

	t := &Table{
		ID:      "E7",
		Title:   "relation extraction: dependency paths vs nearest-verb co-occurrence",
		Columns: []string{"system", "P", "R", "F1"},
	}
	p1, r1, f1 := score(depExtract)
	t.AddRow("dependency", p1, r1, f1)
	p2, r2, f2 := score(coocExtract)
	t.AddRow("co-occurrence", p2, r2, f2)
	t.Notes = append(t.Notes,
		"HAS_HASH ground-truth triples span sentences by construction and cap attainable recall",
	)
	return t, nil
}

// coOccurrenceRelations is the E7 baseline: every entity pair in a
// sentence gets the relation of the first verb between them, ignoring
// syntactic structure.
func coOccurrenceRelations(ext *ner.Extractor, text string) []ontology.Relation {
	var out []ontology.Relation
	for _, sent := range ext.ExtractSpans(text) {
		for i := 0; i < len(sent.Spans); i++ {
			for j := 0; j < len(sent.Spans); j++ {
				if i == j {
					continue
				}
				a, b := sent.Spans[i], sent.Spans[j]
				if a.Start >= b.Start {
					continue
				}
				verb := ""
				for k := a.End; k < b.Start && k < len(sent.Tokens); k++ {
					if textproc.IsVerbTag(sent.Tokens[k].POS) {
						verb = sent.Tokens[k].Lemma
						break
					}
				}
				if verb == "" {
					continue
				}
				rel := ontology.VerbRelation(verb)
				if !ontology.Admissible(a.Type, rel, b.Type) {
					rel = ontology.RelRelatedTo
				}
				out = append(out, ontology.Relation{
					Src:  ontology.Entity{Type: a.Type, Name: a.Name},
					Type: rel,
					Dst:  ontology.Entity{Type: b.Type, Name: b.Name},
				})
			}
		}
	}
	return out
}

var _ = depparse.EntitySpan{} // depparse types flow through ner.ExtractSpans
