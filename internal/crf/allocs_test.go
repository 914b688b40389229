//go:build !race

// Allocation regression guard for decoding. AllocsPerRun is meaningless
// under the race detector, so this runs in the plain pass `make test` adds
// alongside the -race suite.

package crf

import "testing"

// TestDecoderAllocs pins that a warm Decoder resolves and decodes a
// sentence without allocating: two-part features are looked up without
// being joined, and the lattices are the decoder's own from the sentence
// before.
func TestDecoderAllocs(t *testing.T) {
	m, err := Train(makeToySeqs(80, 7), TrainConfig{Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"wannacry", "uses", "mimikatz", "and", "unseen", "lazarus", "the", "victims"}
	d := m.NewDecoder()
	sentence := func() []int {
		d.Reset()
		for _, w := range words {
			d.Add("w=", w)
			d.Add("len=", "8")
			d.Next()
		}
		return d.Viterbi()
	}
	if len(sentence()) != len(words) {
		t.Fatal("sentence not decoded")
	}
	if got := testing.AllocsPerRun(100, func() { sentence() }); got != 0 {
		t.Errorf("warm Decoder allocates %.0f times a sentence, want 0", got)
	}
}
