// Package embed trains compact word embeddings with skip-gram negative
// sampling (Mikolov et al., NeurIPS 2013) on the collected OSCTI corpus.
// The paper lists word embeddings among the CRF's features; here the
// vectors are discretized into k-means cluster ids so the CRF's sparse
// string-feature interface can consume them ("emb_cluster=17").
package embed

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// SGNS training's settings.
const (
	dim          = 24    // vector dimension
	window       = 4     // context window half-size
	negSamples   = 5     // negatives per positive
	epochs       = 3     // passes over the corpus
	learningRate = 0.025 // initial step
	minCount     = 2     // drop words rarer than this
)

// Embeddings holds trained word vectors.
type Embeddings struct {
	dim   int
	words []string
	idx   map[string]int
	vecs  [][]float32
}

// Len returns the vocabulary size.
func (e *Embeddings) Len() int { return len(e.words) }

// Vector returns the embedding for a word.
func (e *Embeddings) Vector(word string) ([]float32, bool) {
	i, ok := e.idx[word]
	if !ok {
		return nil, false
	}
	return e.vecs[i], true
}

// Train fits embeddings on tokenized sentences; seed fixes the random
// initialization and sampling (0 means 1).
func Train(sentences [][]string, seed int64) (*Embeddings, error) {
	if seed == 0 {
		seed = 1
	}
	counts := map[string]int{}
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
		}
	}
	var vocab []string
	for w, c := range counts {
		if c >= minCount {
			vocab = append(vocab, w)
		}
	}
	if len(vocab) < 2 {
		return nil, errors.New("embed: vocabulary too small")
	}
	sort.Strings(vocab)
	idx := make(map[string]int, len(vocab))
	for i, w := range vocab {
		idx[w] = i
	}

	// Unigram^0.75 negative-sampling table.
	table := buildNegTable(vocab, counts, 1<<17)

	rng := rand.New(rand.NewSource(seed))
	V, D := len(vocab), dim
	in := make([][]float32, V)  // input vectors (the result)
	out := make([][]float32, V) // output/context vectors
	for i := 0; i < V; i++ {
		in[i] = make([]float32, D)
		out[i] = make([]float32, D)
		for d := 0; d < D; d++ {
			in[i][d] = (rng.Float32() - 0.5) / float32(D)
		}
	}

	// Pre-encode sentences as vocab ids.
	var encoded [][]int
	for _, s := range sentences {
		var enc []int
		for _, w := range s {
			if i, ok := idx[w]; ok {
				enc = append(enc, i)
			}
		}
		if len(enc) > 1 {
			encoded = append(encoded, enc)
		}
	}
	if len(encoded) == 0 {
		return nil, errors.New("embed: no trainable sentences after vocabulary filtering")
	}

	lr := float32(learningRate)
	grad := make([]float32, D)
	for epoch := 0; epoch < epochs; epoch++ {
		for _, sent := range encoded {
			for pos, w := range sent {
				win := 1 + rng.Intn(window)
				for off := -win; off <= win; off++ {
					if off == 0 {
						continue
					}
					cpos := pos + off
					if cpos < 0 || cpos >= len(sent) {
						continue
					}
					ctx := sent[cpos]
					// One positive + k negative updates on (w -> ctx).
					for d := 0; d < D; d++ {
						grad[d] = 0
					}
					train1(in[w], out[ctx], 1, lr, grad)
					for k := 0; k < negSamples; k++ {
						neg := table[rng.Intn(len(table))]
						if neg == ctx {
							continue
						}
						train1(in[w], out[neg], 0, lr, grad)
					}
					for d := 0; d < D; d++ {
						in[w][d] += grad[d]
					}
				}
			}
		}
		lr *= 0.7 // simple decay per epoch
	}
	return &Embeddings{dim: D, words: vocab, idx: idx, vecs: in}, nil
}

// train1 applies one logistic SGNS update for pair (in, out) with the given
// binary label, accumulating the input-vector gradient into grad and
// updating the output vector in place.
func train1(inV, outV []float32, label float32, lr float32, grad []float32) {
	var dot float32
	for d := range inV {
		dot += inV[d] * outV[d]
	}
	pred := float32(1 / (1 + math.Exp(-float64(dot))))
	g := lr * (label - pred)
	for d := range inV {
		grad[d] += g * outV[d]
		outV[d] += g * inV[d]
	}
}

func buildNegTable(vocab []string, counts map[string]int, size int) []int {
	weights := make([]float64, len(vocab))
	var total float64
	for i, w := range vocab {
		weights[i] = math.Pow(float64(counts[w]), 0.75)
		total += weights[i]
	}
	table := make([]int, 0, size)
	for i := range vocab {
		n := int(weights[i] / total * float64(size))
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			table = append(table, i)
		}
	}
	return table
}

// Clusters assigns every vocabulary word to one of k clusters via k-means
// (deterministic for a seed). The returned map is suitable for CRF features
// like "emb=<cluster id>".
func (e *Embeddings) Clusters(k int, iters int, seed int64) map[string]int {
	if k <= 0 || len(e.words) == 0 {
		return map[string]int{}
	}
	if k > len(e.words) {
		k = len(e.words)
	}
	if iters <= 0 {
		iters = 15
	}
	rng := rand.New(rand.NewSource(seed))
	D := e.dim
	// k-means++ style init: random distinct points.
	perm := rng.Perm(len(e.words))
	centers := make([][]float64, k)
	for c := 0; c < k; c++ {
		centers[c] = make([]float64, D)
		for d := 0; d < D; d++ {
			centers[c][d] = float64(e.vecs[perm[c]][d])
		}
	}
	assign := make([]int, len(e.words))
	for it := 0; it < iters; it++ {
		changed := false
		for i := range e.words {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				var dist float64
				for d := 0; d < D; d++ {
					diff := float64(e.vecs[i][d]) - centers[c][d]
					dist += diff * diff
				}
				if dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centers.
		count := make([]int, k)
		for c := range centers {
			for d := 0; d < D; d++ {
				centers[c][d] = 0
			}
		}
		for i, c := range assign {
			count[c]++
			for d := 0; d < D; d++ {
				centers[c][d] += float64(e.vecs[i][d])
			}
		}
		for c := 0; c < k; c++ {
			if count[c] == 0 {
				continue
			}
			for d := 0; d < D; d++ {
				centers[c][d] /= float64(count[c])
			}
		}
		if !changed {
			break
		}
	}
	out := make(map[string]int, len(e.words))
	for i, w := range e.words {
		out[w] = assign[i]
	}
	return out
}
