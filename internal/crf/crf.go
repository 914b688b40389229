// Package crf implements the linear-chain Conditional Random Field
// (Lafferty et al., ICML 2001) that SecurityKG uses for security-related
// entity recognition. Training maximizes L2-regularized conditional
// log-likelihood with AdaGrad over exact forward-backward gradients;
// decoding is exact Viterbi.
//
// Observations are sparse string features per token (lemmas, POS tags,
// shapes, embedding cluster ids, gazetteer flags — produced by package
// ner). Labels are BIO tags.
//
// A model interns its features: each feature string has a dense id, and
// the weights of feature id are row id of one flat slab. Sentences are
// resolved to ids once (resolved), and scoring, training and decoding work
// on ids and flat lattices.
package crf

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"math/rand"
	"sort"
)

// Sequence is one training example: per-position sparse features and the
// gold label per position.
type Sequence struct {
	Features [][]string
	Labels   []string
}

// Model is a trained linear-chain CRF.
type Model struct {
	labels   []string
	labelIdx map[string]int
	// featIdx maps a feature string to its row of unary.
	featIdx map[string]int32
	// unary holds len(featIdx) rows of len(labels) weights:
	// unary[id*L+label].
	unary []float64
	// trans[prev*L+cur] is the transition weight; row L is the virtual
	// start state.
	trans []float64
	// into[cur*L+prev] is trans[prev*L+cur] once the weights are final:
	// Viterbi reads the transitions into a label side by side.
	into []float64
	// maxInto[cur] is the largest transition into cur from a label (the
	// start row aside): the bound Viterbi's fast path checks against.
	maxInto []float64
}

// finish derives what decoding reads from the final weights.
func (m *Model) finish() *Model {
	L := len(m.labels)
	m.into = make([]float64, L*L)
	m.maxInto = make([]float64, L)
	for cur := 0; cur < L; cur++ {
		m.maxInto[cur] = math.Inf(-1)
		for prev := 0; prev < L; prev++ {
			w := m.trans[prev*L+cur]
			m.into[cur*L+prev] = w
			m.maxInto[cur] = max(m.maxInto[cur], w)
		}
	}
	return m
}

// FeatureID returns the id of feature f, if the model knows it.
func (m *Model) FeatureID(f string) (int32, bool) {
	id, ok := m.featIdx[f]
	return id, ok
}

// Features yields every feature the model knows with its id, in no
// particular order.
func (m *Model) Features() iter.Seq2[string, int32] {
	return func(yield func(string, int32) bool) {
		for f, id := range m.featIdx {
			if !yield(f, id) {
				return
			}
		}
	}
}

// Labels returns the model's label set in index order.
func (m *Model) Labels() []string {
	out := make([]string, len(m.labels))
	copy(out, m.labels)
	return out
}

// resolved is one sentence's features as model ids: position t holds
// ids[off[t]:off[t+1]], in the order the features were given. Features the
// model does not know are left out; they weigh nothing.
type resolved struct {
	ids []int32
	off []int32
}

func (r *resolved) reset() {
	r.ids = r.ids[:0]
	r.off = append(r.off[:0], 0)
}

func (r *resolved) positions() int { return len(r.off) - 1 }

// TrainConfig controls optimization.
type TrainConfig struct {
	Epochs       int     // passes over the data (default 8)
	LearningRate float64 // AdaGrad base step (default 0.2)
	L2           float64 // L2 regularization strength (default 1e-4)
	Seed         int64   // shuffling seed (default 1)
	Verbose      io.Writer
}

func (c *TrainConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.2
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// trainer is the state of one Train call: the training set as ids, the
// AdaGrad accumulators (laid out as the weights are) and the lattices one
// gradient step works on.
type trainer struct {
	m      *Model
	cfg    TrainConfig
	seqs   []resolved
	gold   [][]int
	gUnary []float64
	gTrans []float64

	scores, alpha, beta []float64
	acc, p              []float64
}

// Train fits a CRF on the sequences. The label set is collected from the
// data. Sequences with mismatched feature/label lengths are rejected.
func Train(seqs []Sequence, cfg TrainConfig) (*Model, error) {
	cfg.defaults()
	if len(seqs) == 0 {
		return nil, errors.New("crf: no training sequences")
	}
	labelSet := map[string]bool{}
	for i, s := range seqs {
		if len(s.Features) != len(s.Labels) {
			return nil, fmt.Errorf("crf: sequence %d: %d feature vectors vs %d labels",
				i, len(s.Features), len(s.Labels))
		}
		for _, l := range s.Labels {
			labelSet[l] = true
		}
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	m := &Model{
		labels:   labels,
		labelIdx: make(map[string]int, len(labels)),
		featIdx:  make(map[string]int32),
	}
	for i, l := range labels {
		m.labelIdx[l] = i
	}
	L := len(labels)
	tr := &trainer{m: m, cfg: cfg, seqs: make([]resolved, len(seqs)), gold: make([][]int, len(seqs)),
		acc: make([]float64, L), p: make([]float64, L)}
	for i, s := range seqs {
		r := &tr.seqs[i]
		r.reset()
		tr.gold[i] = make([]int, len(s.Labels))
		for t, feats := range s.Features {
			for _, f := range feats {
				id, ok := m.featIdx[f]
				if !ok {
					id = int32(len(m.featIdx))
					m.featIdx[f] = id
				}
				r.ids = append(r.ids, id)
			}
			r.off = append(r.off, int32(len(r.ids)))
			tr.gold[i][t] = m.labelIdx[s.Labels[t]]
		}
	}
	m.unary = make([]float64, len(m.featIdx)*L)
	m.trans = make([]float64, (L+1)*L)
	tr.gUnary = make([]float64, len(m.unary))
	tr.gTrans = make([]float64, len(m.trans))

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(seqs))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Reshuffle each epoch.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var totalNLL float64
		for _, si := range order {
			totalNLL += tr.sgdStep(&tr.seqs[si], tr.gold[si])
		}
		if cfg.Verbose != nil {
			fmt.Fprintf(cfg.Verbose, "crf: epoch %d nll=%.2f\n", epoch+1, totalNLL)
		}
	}
	return m.finish(), nil
}

// sgdStep computes the gradient of one sequence via forward-backward and
// applies an AdaGrad update. It returns the sequence NLL before the update.
func (tr *trainer) sgdStep(r *resolved, gold []int) float64 {
	T := len(gold)
	if T == 0 {
		return 0
	}
	m := tr.m
	L := len(m.labels)
	start := L * L // offset of the virtual start row of trans

	tr.scores = m.scoreInto(tr.scores, r)
	tr.alpha = grow(tr.alpha, T*L)
	tr.beta = grow(tr.beta, T*L)
	scores, alpha, beta := tr.scores, tr.alpha, tr.beta
	logZ := m.forwardBackward(scores, alpha, beta, tr.acc)

	// Gold path score for NLL reporting.
	goldScore := 0.0
	prev := start
	for t, y := range gold {
		goldScore += scores[t*L+y] + m.trans[prev+y]
		prev = y * L
	}
	nll := logZ - goldScore

	lr := tr.cfg.LearningRate
	l2 := tr.cfg.L2
	update := func(w, g []float64, i int, grad float64) {
		grad += l2 * w[i]
		g[i] += grad * grad
		w[i] -= lr * grad / (1e-8 + math.Sqrt(g[i]))
	}

	// Unary gradients: P(y_t) - 1{y_t = gold}.
	p := tr.p
	for t := 0; t < T; t++ {
		for y := 0; y < L; y++ {
			p[y] = math.Exp(alpha[t*L+y] + beta[t*L+y] - logZ)
		}
		for y := 0; y < L; y++ {
			grad := p[y]
			if y == gold[t] {
				grad -= 1
			}
			if grad == 0 {
				continue
			}
			for _, id := range r.ids[r.off[t]:r.off[t+1]] {
				update(m.unary, tr.gUnary, int(id)*L+y, grad)
			}
		}
	}

	// Transition gradients.
	// Start transition: P(y_0) - 1{gold}.
	for y := 0; y < L; y++ {
		grad := math.Exp(alpha[y] + beta[y] - logZ)
		if y == gold[0] {
			grad -= 1
		}
		if grad != 0 {
			update(m.trans, tr.gTrans, start+y, grad)
		}
	}
	for t := 1; t < T; t++ {
		for yp := 0; yp < L; yp++ {
			for y := 0; y < L; y++ {
				grad := math.Exp(alpha[(t-1)*L+yp] + m.trans[yp*L+y] + scores[t*L+y] + beta[t*L+y] - logZ)
				if yp == gold[t-1] && y == gold[t] {
					grad -= 1
				}
				if grad != 0 {
					update(m.trans, tr.gTrans, yp*L+y, grad)
				}
			}
		}
	}
	return nll
}

// grow returns buf resized to n, reallocating only when it is too small.
// The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// scoreInto computes the unary scores of every position and label into
// scores (resized as needed): scores[t*L+y].
func (m *Model) scoreInto(scores []float64, r *resolved) []float64 {
	L := len(m.labels)
	scores = grow(scores, r.positions()*L)
	clear(scores)
	for t := 0; t < r.positions(); t++ {
		row := scores[t*L : (t+1)*L]
		for _, id := range r.ids[r.off[t]:r.off[t+1]] {
			w := m.unary[int(id)*L:][:len(row)]
			for y := range row {
				row[y] += w[y]
			}
		}
	}
	return scores
}

// forwardBackward fills the log-space lattices alpha[t*L+y] and
// beta[t*L+y] for the scores and returns log Z. acc is scratch of len L.
func (m *Model) forwardBackward(scores, alpha, beta, acc []float64) float64 {
	L := len(m.labels)
	T := len(scores) / L
	for y := 0; y < L; y++ {
		alpha[y] = scores[y] + m.trans[L*L+y]
	}
	for t := 1; t < T; t++ {
		for y := 0; y < L; y++ {
			for yp := 0; yp < L; yp++ {
				acc[yp] = alpha[(t-1)*L+yp] + m.trans[yp*L+y]
			}
			alpha[t*L+y] = logSumExp(acc) + scores[t*L+y]
		}
	}
	clear(beta[(T-1)*L:])
	for t := T - 2; t >= 0; t-- {
		for y := 0; y < L; y++ {
			for yn := 0; yn < L; yn++ {
				acc[yn] = m.trans[y*L+yn] + scores[(t+1)*L+yn] + beta[(t+1)*L+yn]
			}
			beta[t*L+y] = logSumExp(acc)
		}
	}
	return logSumExp(alpha[(T-1)*L:])
}

// Decoder resolves the features of one sentence at a time against its
// model and decodes them, reusing its buffers from sentence to sentence.
// A sentence is Reset, then Add (or AddIDs) for the features of a
// position and Next to close the position, then Viterbi. A Decoder is not
// safe for concurrent use; the model it reads is.
type Decoder struct {
	m      *Model
	key    []byte
	r      resolved
	scores []float64
	delta  []float64
	back   []int32
	path   []int
}

// NewDecoder returns a decoder over the model.
func (m *Model) NewDecoder() *Decoder { return &Decoder{m: m} }

// Reset starts a new sentence.
func (d *Decoder) Reset() { d.r.reset() }

// Add adds the feature template+value to the current position. The two
// parts are looked up as one string without being joined into one.
func (d *Decoder) Add(template, value string) {
	d.key = append(append(d.key[:0], template...), value...)
	if id, ok := d.m.featIdx[string(d.key)]; ok {
		d.r.ids = append(d.r.ids, id)
	}
}

// AddIDs adds features by the ids FeatureID or Features gave for them to
// the current position.
func (d *Decoder) AddIDs(ids ...int32) { d.r.ids = append(d.r.ids, ids...) }

// Next closes the current position.
func (d *Decoder) Next() { d.r.off = append(d.r.off, int32(len(d.r.ids))) }

func (d *Decoder) load(features [][]string) {
	d.Reset()
	for _, feats := range features {
		for _, f := range feats {
			d.Add(f, "")
		}
		d.Next()
	}
}

// Viterbi returns the optimal label index (into Labels) of every position
// of the sentence. The slice is the decoder's: the next Viterbi overwrites
// it.
func (d *Decoder) Viterbi() []int {
	T := d.r.positions()
	if T == 0 {
		return nil
	}
	m := d.m
	L := len(m.labels)
	d.scores = m.scoreInto(d.scores, &d.r)
	d.delta = grow(d.delta, T*L)
	d.back = grow(d.back, T*L)
	d.path = grow(d.path, T)
	scores, delta, back, path := d.scores, d.delta, d.back, d.path
	for y := 0; y < L; y++ {
		delta[y] = scores[y] + m.trans[L*L+y]
	}
	for t := 1; t < T; t++ {
		prev := delta[(t-1)*L : t*L]
		// top is the best previous label (the lowest among equals) and
		// second the best score of all the others.
		top, second := 0, math.Inf(-1)
		for yp := 1; yp < L; yp++ {
			if dv := prev[yp]; dv > prev[top] {
				top, second = yp, prev[top]
			} else if dv > second {
				second = dv
			}
		}
		for y := 0; y < L; y++ {
			into := m.into[y*L : (y+1)*L][:len(prev)]
			// No other predecessor scores above second+maxInto[y], and
			// float addition is monotone: when top beats that strictly,
			// top is the one maximum the full loop below would find.
			best, bestPrev := prev[top]+into[top], top
			if !(second+m.maxInto[y] < best) {
				best, bestPrev = math.Inf(-1), 0
				for yp, dv := range prev {
					if v := dv + into[yp]; v > best {
						best, bestPrev = v, yp
					}
				}
			}
			delta[t*L+y] = best + scores[t*L+y]
			back[t*L+y] = int32(bestPrev)
		}
	}
	bestY, bestV := 0, math.Inf(-1)
	for y, v := range delta[(T-1)*L:] {
		if v > bestV {
			bestV, bestY = v, y
		}
	}
	y := bestY
	for t := T - 1; t >= 0; t-- {
		path[t] = y
		y = int(back[t*L+y])
	}
	return path
}

// Decode returns the Viterbi-optimal label sequence for the features.
func (m *Model) Decode(features [][]string) []string {
	d := m.NewDecoder()
	d.load(features)
	path := d.Viterbi()
	if path == nil {
		return nil
	}
	out := make([]string, len(path))
	for t, y := range path {
		out[t] = m.labels[y]
	}
	return out
}

// MarginalProbs returns per-position label marginal probabilities
// P(y_t = l | x), useful for confidence thresholds.
func (m *Model) MarginalProbs(features [][]string) [][]float64 {
	T := len(features)
	if T == 0 {
		return nil
	}
	L := len(m.labels)
	d := m.NewDecoder()
	d.load(features)
	scores := m.scoreInto(nil, &d.r)
	alpha, beta := make([]float64, T*L), make([]float64, T*L)
	logZ := m.forwardBackward(scores, alpha, beta, make([]float64, L))
	out := make([][]float64, T)
	for t := 0; t < T; t++ {
		out[t] = make([]float64, L)
		for y := 0; y < L; y++ {
			out[t][y] = math.Exp(alpha[t*L+y] + beta[t*L+y] - logZ)
		}
	}
	return out
}

func logSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// --- persistence ---

type persistModel struct {
	Magic  string               `json:"magic"`
	Labels []string             `json:"labels"`
	Unary  map[string][]float64 `json:"unary"`
	Trans  [][]float64          `json:"trans"`
}

const modelMagic = "securitykg-crf-v1"

// Save serializes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	L := len(m.labels)
	p := persistModel{Magic: modelMagic, Labels: m.labels,
		Unary: make(map[string][]float64, len(m.featIdx)), Trans: make([][]float64, L+1)}
	for f, id := range m.featIdx {
		p.Unary[f] = m.unary[int(id)*L : (int(id)+1)*L]
	}
	for i := range p.Trans {
		p.Trans[i] = m.trans[i*L : (i+1)*L]
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(p); err != nil {
		return fmt.Errorf("crf: save: %w", err)
	}
	return bw.Flush()
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var p persistModel
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&p); err != nil {
		return nil, fmt.Errorf("crf: load: %w", err)
	}
	if p.Magic != modelMagic {
		return nil, errors.New("crf: not a securitykg CRF model")
	}
	L := len(p.Labels)
	m := &Model{
		labels:   p.Labels,
		labelIdx: make(map[string]int, L),
		featIdx:  make(map[string]int32, len(p.Unary)),
		unary:    make([]float64, 0, len(p.Unary)*L),
		trans:    make([]float64, 0, (L+1)*L),
	}
	for i, l := range p.Labels {
		m.labelIdx[l] = i
	}
	if len(p.Trans) != L+1 {
		return nil, errors.New("crf: corrupt transition matrix")
	}
	for _, row := range p.Trans {
		if len(row) != L {
			return nil, errors.New("crf: corrupt transition matrix")
		}
		m.trans = append(m.trans, row...)
	}
	feats := make([]string, 0, len(p.Unary))
	for f := range p.Unary {
		feats = append(feats, f)
	}
	sort.Strings(feats)
	for _, f := range feats {
		if len(p.Unary[f]) != L {
			return nil, fmt.Errorf("crf: corrupt weights for feature %q", f)
		}
		m.featIdx[f] = int32(len(m.featIdx))
		m.unary = append(m.unary, p.Unary[f]...)
	}
	return m.finish(), nil
}
