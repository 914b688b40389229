package embed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// topicCorpus builds sentences from two disjoint topics so words within a
// topic co-occur and words across topics never do.
func topicCorpus(n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	topicA := []string{"malware", "trojan", "payload", "dropper", "infection"}
	topicB := []string{"patch", "update", "mitigation", "advisory", "fix"}
	glue := []string{"the", "a", "was", "is"}
	var out [][]string
	for i := 0; i < n; i++ {
		topic := topicA
		if i%2 == 1 {
			topic = topicB
		}
		var sent []string
		for j := 0; j < 8; j++ {
			if rng.Float64() < 0.25 {
				sent = append(sent, glue[rng.Intn(len(glue))])
			} else {
				sent = append(sent, topic[rng.Intn(len(topic))])
			}
		}
		out = append(out, sent)
	}
	return out
}

func trainTopics(t *testing.T) *Embeddings {
	t.Helper()
	e, err := Train(topicCorpus(600, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTrainProducesVectorsForFrequentWords(t *testing.T) {
	e := trainTopics(t)
	for _, w := range []string{"malware", "patch", "the"} {
		v, ok := e.Vector(w)
		if !ok {
			t.Errorf("missing vector for %q", w)
			continue
		}
		if len(v) != dim {
			t.Errorf("vector dim %d, want %d", len(v), dim)
		}
	}
	if _, ok := e.Vector("neverappears"); ok {
		t.Error("OOV word has a vector")
	}
}

func TestMinCountFiltersRareWords(t *testing.T) {
	sentences := [][]string{
		{"common", "common", "rareword", "common"},
		{"common", "other", "common", "other"},
	}
	e, err := Train(sentences, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Vector("rareword"); ok {
		t.Error("rare word survived minCount")
	}
	if _, ok := e.Vector("common"); !ok {
		t.Error("frequent word dropped")
	}
}

func TestTrainErrorsOnTinyVocab(t *testing.T) {
	if _, err := Train([][]string{{"only"}}, 1); err == nil {
		t.Error("tiny vocabulary should error")
	}
	if _, err := Train(nil, 1); err == nil {
		t.Error("empty corpus should error")
	}
}

func TestTopicWordsCloserWithinThanAcross(t *testing.T) {
	e := trainTopics(t)
	within := similarity(t, e, "malware", "trojan")
	across := similarity(t, e, "malware", "patch")
	if within <= across {
		t.Errorf("within-topic similarity %.3f should exceed across-topic %.3f",
			within, across)
	}
	within2 := similarity(t, e, "patch", "update")
	across2 := similarity(t, e, "update", "dropper")
	if within2 <= across2 {
		t.Errorf("topic B: within %.3f vs across %.3f", within2, across2)
	}
}

// similarity is the cosine of two in-vocabulary words' vectors.
func similarity(t *testing.T, e *Embeddings, a, b string) float64 {
	t.Helper()
	va, okA := e.Vector(a)
	vb, okB := e.Vector(b)
	if !okA || !okB {
		t.Fatalf("%q or %q is out of vocabulary", a, b)
	}
	var dot, na, nb float64
	for i := range va {
		dot += float64(va[i]) * float64(vb[i])
		na += float64(va[i]) * float64(va[i])
		nb += float64(vb[i]) * float64(vb[i])
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func TestClustersSeparateTopics(t *testing.T) {
	e := trainTopics(t)
	clusters := e.Clusters(2, 30, 1)
	// All topic-A content words should share a cluster distinct from B's
	// majority cluster.
	count := map[int]int{}
	for _, w := range []string{"malware", "trojan", "payload", "dropper"} {
		count[clusters[w]]++
	}
	maxA, clA := 0, 0
	for c, n := range count {
		if n > maxA {
			maxA, clA = n, c
		}
	}
	if maxA < 3 {
		t.Errorf("topic A words scattered across clusters: %v", count)
	}
	countB := map[int]int{}
	for _, w := range []string{"patch", "update", "mitigation", "advisory"} {
		countB[clusters[w]]++
	}
	maxB, clB := 0, 0
	for c, n := range countB {
		if n > maxB {
			maxB, clB = n, c
		}
	}
	if maxB >= 3 && clA == clB {
		t.Errorf("topics share the dominant cluster %d", clA)
	}
}

func TestClustersEdgeCases(t *testing.T) {
	e := trainTopics(t)
	if got := e.Clusters(0, 5, 1); len(got) != 0 {
		t.Error("k=0 should return empty map")
	}
	big := e.Clusters(10000, 5, 1)
	if len(big) != e.Len() {
		t.Errorf("k>vocab should still assign all words: %d", len(big))
	}
	for _, c := range big {
		if c < 0 || c >= e.Len() {
			t.Errorf("cluster id out of range: %d", c)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	corpus := topicCorpus(200, 3)
	e1, _ := Train(corpus, 99)
	e2, _ := Train(corpus, 99)
	v1, _ := e1.Vector("malware")
	v2, _ := e2.Vector("malware")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed produced different vectors")
		}
	}
}

func TestWordsSortedStable(t *testing.T) {
	e := trainTopics(t)
	ws := e.words
	for i := 1; i < len(ws); i++ {
		if ws[i-1] >= ws[i] {
			t.Fatalf("vocabulary not sorted at %d: %q >= %q", i, ws[i-1], ws[i])
		}
	}
	_ = fmt.Sprint(ws)
}
