package crf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// makeToySeqs builds a synthetic tagging task where the observation feature
// fully determines the label (with some noise words tagged O).
func makeToySeqs(n int, seed int64) []Sequence {
	rng := rand.New(rand.NewSource(seed))
	entities := map[string]string{
		"wannacry": "B-MAL", "emotet": "B-MAL", "trickbot": "B-MAL",
		"apt29": "B-ACT", "lazarus": "B-ACT",
		"mimikatz": "B-TOOL", "cobaltstrike": "B-TOOL",
	}
	fillers := []string{"the", "malware", "uses", "infrastructure", "and",
		"was", "observed", "targeting", "victims", "across", "sectors"}
	ents := make([]string, 0, len(entities))
	for e := range entities {
		ents = append(ents, e)
	}
	var seqs []Sequence
	for i := 0; i < n; i++ {
		var feats [][]string
		var labels []string
		slen := 5 + rng.Intn(8)
		for t := 0; t < slen; t++ {
			var w, lab string
			if rng.Float64() < 0.3 {
				w = ents[rng.Intn(len(ents))]
				lab = entities[w]
			} else {
				w = fillers[rng.Intn(len(fillers))]
				lab = "O"
			}
			feats = append(feats, []string{"w=" + w, "len=" + fmt.Sprint(len(w))})
			labels = append(labels, lab)
		}
		seqs = append(seqs, Sequence{Features: feats, Labels: labels})
	}
	return seqs
}

func TestTrainDecodeLearnsSeparableTask(t *testing.T) {
	train := makeToySeqs(200, 1)
	test := makeToySeqs(50, 2)
	m, err := Train(train, TrainConfig{Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for _, s := range test {
		got := m.Decode(s.Features)
		if len(got) != len(s.Labels) {
			t.Fatalf("decode length mismatch: %d vs %d", len(got), len(s.Labels))
		}
		for i := range got {
			total++
			if got[i] == s.Labels[i] {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.97 {
		t.Errorf("separable task accuracy %.3f, want >= 0.97", acc)
	}
}

func TestTrainLearnsTransitionStructure(t *testing.T) {
	// Task where the observation is ambiguous but transitions disambiguate:
	// label alternates strictly A,B,A,B... while every token has the same
	// observation feature. A unigram classifier cannot beat 50%; the CRF's
	// transition weights can reach ~100%.
	var seqs []Sequence
	for i := 0; i < 60; i++ {
		var feats [][]string
		var labels []string
		for t := 0; t < 10; t++ {
			feats = append(feats, []string{"x"})
			if t%2 == 0 {
				labels = append(labels, "A")
			} else {
				labels = append(labels, "B")
			}
		}
		seqs = append(seqs, Sequence{Features: feats, Labels: labels})
	}
	m, err := Train(seqs, TrainConfig{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Decode(seqs[0].Features)
	want := strings.Join(seqs[0].Labels, ",")
	if strings.Join(got, ",") != want {
		t.Errorf("transition structure not learned: got %v", got)
	}
}

func TestGeneralizationToUnseenFeatureCombos(t *testing.T) {
	// Entities carry a shared contextual cue feature ("prevword=group").
	// A held-out entity word with the cue should still be tagged as entity
	// — the paper's claim that the CRF "generalizes to entities not in the
	// training set" via token-level features.
	var seqs []Sequence
	for i := 0; i < 120; i++ {
		w := fmt.Sprintf("actor%d", i%10)
		seqs = append(seqs, Sequence{
			Features: [][]string{
				{"w=the"}, {"w=group", "cue"}, {"w=" + w, "shape=Xx", "after-cue"}, {"w=attacked"},
			},
			Labels: []string{"O", "O", "B-ACT", "O"},
		})
	}
	m, err := Train(seqs, TrainConfig{Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Decode([][]string{
		{"w=the"}, {"w=group", "cue"}, {"w=neverseen", "shape=Xx", "after-cue"}, {"w=attacked"},
	})
	if got[2] != "B-ACT" {
		t.Errorf("unseen entity with known context mislabeled: %v", got)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Error("empty training set should error")
	}
	bad := []Sequence{{Features: [][]string{{"a"}}, Labels: []string{"O", "O"}}}
	if _, err := Train(bad, TrainConfig{}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestDecodeEmptySequence(t *testing.T) {
	m, err := Train(makeToySeqs(10, 3), TrainConfig{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Decode(nil); got != nil {
		t.Errorf("empty decode: %v", got)
	}
}

func TestDecodeUnknownFeaturesFallsBackToPrior(t *testing.T) {
	m, err := Train(makeToySeqs(100, 4), TrainConfig{Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Decode([][]string{{"w=zzz_unknown"}, {"w=qqq_unknown"}})
	// With only unknown features, the majority label O should win.
	for _, l := range got {
		if l != "O" {
			t.Errorf("unknown features should decode to O, got %v", got)
		}
	}
}

func TestMarginalProbsSumToOne(t *testing.T) {
	m, err := Train(makeToySeqs(50, 5), TrainConfig{Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	feats := [][]string{{"w=wannacry"}, {"w=uses"}, {"w=mimikatz"}}
	probs := m.MarginalProbs(feats)
	if len(probs) != 3 {
		t.Fatalf("marginals length: %d", len(probs))
	}
	for t_, row := range probs {
		sum := 0.0
		for _, p := range row {
			if p < -1e-9 || p > 1+1e-9 {
				t.Errorf("probability out of range: %f", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("position %d marginals sum to %f", t_, sum)
		}
	}
}

func TestMarginalsAgreeWithViterbiOnConfidentInput(t *testing.T) {
	m, err := Train(makeToySeqs(200, 6), TrainConfig{Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	feats := [][]string{{"w=the"}, {"w=wannacry"}, {"w=observed"}}
	path := m.Decode(feats)
	probs := m.MarginalProbs(feats)
	labels := m.Labels()
	for t_ := range feats {
		best, bestP := "", -1.0
		for y, p := range probs[t_] {
			if p > bestP {
				bestP, best = p, labels[y]
			}
		}
		if best != path[t_] {
			t.Errorf("position %d: viterbi %s vs argmax-marginal %s (p=%.2f)",
				t_, path[t_], best, bestP)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(makeToySeqs(80, 7), TrainConfig{Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	feats := [][]string{{"w=wannacry"}, {"w=uses"}, {"w=mimikatz"}, {"w=and"}}
	a := strings.Join(m.Decode(feats), ",")
	b := strings.Join(m2.Decode(feats), ",")
	if a != b {
		t.Errorf("loaded model decodes differently: %s vs %s", a, b)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString(`{"magic":"wrong"}`)); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("non-JSON accepted")
	}
}

func TestTrainingIsDeterministicForSeed(t *testing.T) {
	seqs := makeToySeqs(60, 8)
	m1, _ := Train(seqs, TrainConfig{Epochs: 2, Seed: 42})
	m2, _ := Train(seqs, TrainConfig{Epochs: 2, Seed: 42})
	feats := [][]string{{"w=emotet"}, {"w=was"}, {"w=observed"}}
	if strings.Join(m1.Decode(feats), ",") != strings.Join(m2.Decode(feats), ",") {
		t.Error("same seed should give identical decisions")
	}
}

func TestLogSumExpStability(t *testing.T) {
	// Large values must not overflow.
	v := logSumExp([]float64{1000, 1000})
	if math.IsInf(v, 1) || math.Abs(v-(1000+math.Log(2))) > 1e-9 {
		t.Errorf("logSumExp(1000,1000) = %f", v)
	}
	if !math.IsInf(logSumExp([]float64{math.Inf(-1)}), -1) {
		t.Error("logSumExp of -inf should be -inf")
	}
}
