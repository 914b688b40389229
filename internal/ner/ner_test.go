package ner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"securitykg/internal/gazetteer"
	"securitykg/internal/ontology"
)

// corpusDoc is a synthetic training/eval document with gold entities.
type corpusDoc struct {
	text string
	gold []Entity
}

// makeCorpus builds template-based OSCTI-like documents. When unseen is
// true, malware/actor names are synthetic (absent from the gazetteer) so
// the corpus tests generalization.
func makeCorpus(n int, unseen bool, seed int64) []corpusDoc {
	rng := rand.New(rand.NewSource(seed))
	mal := gazetteer.Malware()
	act := gazetteer.ThreatActors()
	tool := gazetteer.Tools()
	tech := gazetteer.Techniques()
	novelMal := []string{"Frostbite", "Nightshade", "Vexlock", "Grimspider",
		"Duskbot", "Palecrypt", "Hollowrat", "Smokeloader2"}
	novelAct := []string{"BronzeNight", "CrimsonFox", "SilentJackal",
		"IronVulture", "GhostLynx", "AmberWasp"}
	var docs []corpusDoc
	for i := 0; i < n; i++ {
		var m, a string
		if unseen {
			m = novelMal[rng.Intn(len(novelMal))]
			a = novelAct[rng.Intn(len(novelAct))]
		} else {
			m = mal[rng.Intn(len(mal))]
			a = act[rng.Intn(len(act))]
		}
		to := tool[rng.Intn(len(tool))]
		te := tech[rng.Intn(len(tech))]
		ip := fmt.Sprintf("10.%d.%d.%d", rng.Intn(250), rng.Intn(250), 1+rng.Intn(250))
		text := fmt.Sprintf(
			"Researchers observed the %s ransomware in a new campaign. "+
				"The %s group deployed the tool %s during the intrusion. "+
				"The malware used %s to move laterally. "+
				"It connects to %s for command and control.",
			m, a, to, te, ip)
		docs = append(docs, corpusDoc{
			text: text,
			gold: []Entity{
				{Type: ontology.TypeMalware, Name: m},
				{Type: ontology.TypeThreatActor, Name: a},
				{Type: ontology.TypeTool, Name: to},
				{Type: ontology.TypeTechnique, Name: te},
				{Type: ontology.TypeIP, Name: ip},
			},
		})
	}
	return docs
}

func texts(docs []corpusDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.text
	}
	return out
}

func trainSmall(t *testing.T, strategy LabelingStrategy) *Extractor {
	t.Helper()
	docs := makeCorpus(60, false, 1)
	ex, err := Train(texts(docs), TrainOptions{Strategy: strategy, Epochs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestTrainAndExtractKnownEntities(t *testing.T) {
	ex := trainSmall(t, StrategyLabelModel)
	ents := ex.Extract("The WannaCry ransomware was observed. The Lazarus Group group used the tool Mimikatz. It connects to 10.1.2.3 today.")
	byType := map[ontology.EntityType][]string{}
	for _, e := range ents {
		byType[e.Type] = append(byType[e.Type], e.Name)
	}
	if !containsFold(byType[ontology.TypeMalware], "WannaCry") {
		t.Errorf("missed WannaCry: %+v", byType)
	}
	if !containsFold(byType[ontology.TypeTool], "Mimikatz") {
		t.Errorf("missed Mimikatz: %+v", byType)
	}
	if !containsFold(byType[ontology.TypeIP], "10.1.2.3") {
		t.Errorf("missed IP: %+v", byType)
	}
}

func containsFold(xs []string, want string) bool {
	for _, x := range xs {
		if strings.EqualFold(x, want) {
			return true
		}
	}
	return false
}

func TestCRFGeneralizesToUnseenEntities(t *testing.T) {
	// Train on curated names; evaluate on documents whose malware/actor
	// names are NOT in any gazetteer. The CRF should still find many of
	// them from context; the gazetteer baseline finds none (paper claim).
	trainDocs := makeCorpus(150, false, 2)
	testDocs := makeCorpus(40, true, 3)
	ex, err := Train(texts(trainDocs), TrainOptions{Epochs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline()

	var predCRF, predBase, gold [][]Entity
	for _, d := range testDocs {
		predCRF = append(predCRF, filterTypes(ex.Extract(d.text),
			ontology.TypeMalware, ontology.TypeThreatActor))
		predBase = append(predBase, filterTypes(base.Extract(d.text),
			ontology.TypeMalware, ontology.TypeThreatActor))
		gold = append(gold, filterTypes(d.gold,
			ontology.TypeMalware, ontology.TypeThreatActor))
	}
	mCRF, err := Evaluate(predCRF, gold)
	if err != nil {
		t.Fatal(err)
	}
	mBase, err := Evaluate(predBase, gold)
	if err != nil {
		t.Fatal(err)
	}
	if mBase.Recall != 0 {
		t.Errorf("baseline cannot recall unseen entities, got R=%.3f", mBase.Recall)
	}
	if mCRF.Recall < 0.5 {
		t.Errorf("CRF recall on unseen entities %.3f, want >= 0.5", mCRF.Recall)
	}
	if mCRF.F1 <= mBase.F1 {
		t.Errorf("CRF F1 %.3f should beat baseline %.3f on unseen entities",
			mCRF.F1, mBase.F1)
	}
}

func filterTypes(es []Entity, types ...ontology.EntityType) []Entity {
	var out []Entity
	for _, e := range es {
		for _, t := range types {
			if e.Type == t {
				out = append(out, e)
			}
		}
	}
	return out
}

func TestBaselineFindsCuratedAndIOCs(t *testing.T) {
	b := NewBaseline()
	ents := b.Extract("Emotet used Cobalt Strike and credential dumping, contacting 8.8.4.4 and evil.example.com.")
	wants := []Entity{
		{Type: ontology.TypeMalware, Name: "Emotet"},
		{Type: ontology.TypeTool, Name: "Cobalt Strike"},
		{Type: ontology.TypeTechnique, Name: "credential dumping"},
		{Type: ontology.TypeIP, Name: "8.8.4.4"},
		{Type: ontology.TypeDomain, Name: "evil.example.com"},
	}
	for _, w := range wants {
		found := false
		for _, e := range ents {
			if e.Type == w.Type && strings.EqualFold(e.Name, w.Name) {
				found = true
			}
		}
		if !found {
			t.Errorf("baseline missed %+v in %+v", w, ents)
		}
	}
}

func TestExtractRestoresIOCsInsideSpans(t *testing.T) {
	ex := trainSmall(t, StrategyLabelModel)
	ents := ex.Extract("The dropper fetches http://bad.c2-host.com/payload for the campaign.")
	for _, e := range ents {
		if strings.Contains(e.Name, "iocterm_") {
			t.Errorf("placeholder leaked into entity name: %+v", e)
		}
	}
}

func TestExtractDedupes(t *testing.T) {
	ex := trainSmall(t, StrategyLabelModel)
	ents := ex.Extract("WannaCry and WannaCry and wannacry appeared. WannaCry persisted.")
	count := 0
	for _, e := range ents {
		if e.Type == ontology.TypeMalware && strings.EqualFold(e.Name, "wannacry") {
			count++
		}
	}
	if count > 1 {
		t.Errorf("duplicate entities not merged: %+v", ents)
	}
}

func TestStrategiesAllTrain(t *testing.T) {
	docs := makeCorpus(30, false, 5)
	for _, s := range []LabelingStrategy{StrategyLabelModel, StrategyMajority, StrategyGazetteerOnly} {
		if _, err := Train(texts(docs), TrainOptions{Strategy: s, Epochs: 2, Seed: 1}); err != nil {
			t.Errorf("strategy %s failed: %v", s, err)
		}
	}
}

func TestTrainEmptyCorpusErrors(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Error("empty corpus should error")
	}
	if _, err := Train([]string{"", "   "}, TrainOptions{}); err == nil {
		t.Error("blank corpus should error")
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(make([][]Entity, 2), make([][]Entity, 3)); err == nil {
		t.Error("mismatched lengths should error")
	}
}

func TestEvaluateMetricsMath(t *testing.T) {
	pred := [][]Entity{{
		{Type: ontology.TypeMalware, Name: "A"},
		{Type: ontology.TypeMalware, Name: "B"},
	}}
	gold := [][]Entity{{
		{Type: ontology.TypeMalware, Name: "a"}, // case-insensitive match
		{Type: ontology.TypeMalware, Name: "C"},
	}}
	m, err := Evaluate(pred, gold)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 1 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("confusion counts wrong: %+v", m)
	}
	if m.Precision != 0.5 || m.Recall != 0.5 || m.F1 != 0.5 {
		t.Errorf("P/R/F1 = %.2f/%.2f/%.2f, want 0.5 each", m.Precision, m.Recall, m.F1)
	}
	if m.String() == "" {
		t.Error("String() empty")
	}
}

// TestEntityTypeOfRoundTrip: every class maps to an entity type, and no
// two classes to the same one, so an entity type names its class.
func TestEntityTypeOfRoundTrip(t *testing.T) {
	classOf := map[ontology.EntityType]gazetteer.Class{}
	for _, c := range gazetteer.Classes() {
		et, ok := EntityTypeOf(c)
		if !ok {
			t.Errorf("class %s has no entity type", c)
			continue
		}
		if prev, dup := classOf[et]; dup {
			t.Errorf("round trip failed: %s and %s both map to %s", prev, c, et)
		}
		classOf[et] = c
	}
}

func TestBIOConversion(t *testing.T) {
	malIdx := classIndex(gazetteer.ClassMalware)
	actIdx := classIndex(gazetteer.ClassActor)
	labels := []int{0, malIdx, malIdx, 0, actIdx, malIdx}
	bio := toBIO(labels)
	want := []string{"O", "B-MAL", "I-MAL", "O", "B-ACT", "B-MAL"}
	for i := range want {
		if bio[i] != want[i] {
			t.Fatalf("toBIO = %v, want %v", bio, want)
		}
	}
}
