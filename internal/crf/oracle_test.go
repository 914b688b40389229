package crf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// The oracle: the string-keyed CRF the interned one replaced — a map from
// feature string to weight row, a lattice row allocated per position. It
// reads a model in its persisted form, so it shares no code with Model
// beyond logSumExp.

func naiveScores(p *persistModel, features [][]string) [][]float64 {
	scores := make([][]float64, len(features))
	for t, feats := range features {
		row := make([]float64, len(p.Labels))
		for _, f := range feats {
			if w, ok := p.Unary[f]; ok {
				for y := range row {
					row[y] += w[y]
				}
			}
		}
		scores[t] = row
	}
	return scores
}

func naiveDecode(p *persistModel, features [][]string) []string {
	T, L := len(features), len(p.Labels)
	if T == 0 {
		return nil
	}
	scores := naiveScores(p, features)
	delta := make([][]float64, T)
	back := make([][]int, T)
	for t := range delta {
		delta[t] = make([]float64, L)
		back[t] = make([]int, L)
	}
	for y := 0; y < L; y++ {
		delta[0][y] = scores[0][y] + p.Trans[L][y]
	}
	for t := 1; t < T; t++ {
		for y := 0; y < L; y++ {
			best, bestPrev := math.Inf(-1), 0
			for yp := 0; yp < L; yp++ {
				if v := delta[t-1][yp] + p.Trans[yp][y]; v > best {
					best, bestPrev = v, yp
				}
			}
			delta[t][y] = best + scores[t][y]
			back[t][y] = bestPrev
		}
	}
	bestY, bestV := 0, math.Inf(-1)
	for y := 0; y < L; y++ {
		if delta[T-1][y] > bestV {
			bestV, bestY = delta[T-1][y], y
		}
	}
	out := make([]string, T)
	for t, y := T-1, bestY; t >= 0; t-- {
		out[t] = p.Labels[y]
		y = back[t][y]
	}
	return out
}

func naiveMarginals(p *persistModel, features [][]string) [][]float64 {
	T, L := len(features), len(p.Labels)
	if T == 0 {
		return nil
	}
	scores := naiveScores(p, features)
	alpha := make([][]float64, T)
	beta := make([][]float64, T)
	for t := range alpha {
		alpha[t] = make([]float64, L)
		beta[t] = make([]float64, L)
	}
	for y := 0; y < L; y++ {
		alpha[0][y] = scores[0][y] + p.Trans[L][y]
	}
	for t := 1; t < T; t++ {
		for y := 0; y < L; y++ {
			acc := make([]float64, L)
			for yp := 0; yp < L; yp++ {
				acc[yp] = alpha[t-1][yp] + p.Trans[yp][y]
			}
			alpha[t][y] = logSumExp(acc) + scores[t][y]
		}
	}
	for t := T - 2; t >= 0; t-- {
		for y := 0; y < L; y++ {
			acc := make([]float64, L)
			for yn := 0; yn < L; yn++ {
				acc[yn] = p.Trans[y][yn] + scores[t+1][yn] + beta[t+1][yn]
			}
			beta[t][y] = logSumExp(acc)
		}
	}
	logZ := logSumExp(alpha[T-1])
	out := make([][]float64, T)
	for t := range out {
		out[t] = make([]float64, L)
		for y := 0; y < L; y++ {
			out[t][y] = math.Exp(alpha[t][y] + beta[t][y] - logZ)
		}
	}
	return out
}

// randomModel draws a model with nLabels labels over nFeats features, in
// its persisted form and loaded.
func randomModel(t *testing.T, rng *rand.Rand, nLabels, nFeats int) (*persistModel, *Model) {
	t.Helper()
	p := &persistModel{Magic: modelMagic, Unary: map[string][]float64{}}
	row := func() []float64 {
		r := make([]float64, nLabels)
		for i := range r {
			// A few exact ties, so tie-breaking is compared too.
			r[i] = math.Round(rng.NormFloat64()*4) / 2
		}
		return r
	}
	for i := 0; i < nLabels; i++ {
		p.Labels = append(p.Labels, fmt.Sprintf("L%d", i))
	}
	for i := 0; i < nFeats; i++ {
		p.Unary[fmt.Sprintf("f%d=v", i)] = row()
	}
	for i := 0; i <= nLabels; i++ {
		p.Trans = append(p.Trans, row())
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestInternedMatchesStringKeyedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		nLabels, nFeats := 1+rng.Intn(9), 1+rng.Intn(30)
		p, m := randomModel(t, rng, nLabels, nFeats)
		d := m.NewDecoder() // one decoder across sentences: stale scratch must not leak
		for sent := 0; sent < 8; sent++ {
			features := make([][]string, rng.Intn(14))
			for i := range features {
				for k := rng.Intn(6); k > 0; k-- {
					// Known, unknown and repeated features.
					features[i] = append(features[i], fmt.Sprintf("f%d=v", rng.Intn(nFeats+3)))
				}
			}
			want := naiveDecode(p, features)
			if got := m.Decode(features); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Decode %v, oracle %v", trial, got, want)
			}
			// The same sentence through Add's two-part keys.
			d.Reset()
			for _, feats := range features {
				for _, f := range feats {
					d.Add(f[:len(f)-2], f[len(f)-2:])
				}
				d.Next()
			}
			path := d.Viterbi()
			for i, y := range path {
				if m.labels[y] != want[i] {
					t.Fatalf("trial %d: Decoder path %v, oracle %v", trial, path, want)
				}
			}
			if len(path) != len(want) {
				t.Fatalf("trial %d: Decoder path has %d positions, oracle %d", trial, len(path), len(want))
			}
			if got, want := m.MarginalProbs(features), naiveMarginals(p, features); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: MarginalProbs %v, oracle %v", trial, got, want)
			}
		}
	}
}

// testdata/parent-model.json was written by Save at the commit before
// features were interned, and parent-decodes.json holds what that commit
// decoded from it: the persisted format and every decision carry over.
func TestLoadsAndDecodesParentModel(t *testing.T) {
	f, err := os.Open("testdata/parent-model.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("testdata/parent-decodes.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Features  [][]string  `json:"features"`
		Labels    []string    `json:"labels"`
		Marginals [][]float64 `json:"marginals"`
	}
	if err := json.Unmarshal(b, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no cases")
	}
	for i, c := range cases {
		if got := m.Decode(c.Features); !reflect.DeepEqual(got, c.Labels) {
			t.Errorf("case %d: Decode %v, parent %v", i, got, c.Labels)
		}
		if got := m.MarginalProbs(c.Features); !reflect.DeepEqual(got, c.Marginals) {
			t.Errorf("case %d: MarginalProbs differ from the parent's", i)
		}
	}
	// And Save writes the file back byte for byte.
	want, err := os.ReadFile("testdata/parent-model.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("Save does not reproduce the parent's file")
	}
}

func TestLoadRejectsRaggedWeights(t *testing.T) {
	for _, doc := range []string{
		`{"magic":"securitykg-crf-v1","labels":["A","B"],"unary":{"f":[1]},"trans":[[0,0],[0,0],[0,0]]}`,
		`{"magic":"securitykg-crf-v1","labels":["A","B"],"unary":{},"trans":[[0,0],[0],[0,0]]}`,
		`{"magic":"securitykg-crf-v1","labels":["A","B"],"unary":{},"trans":[[0,0],[0,0]]}`,
	} {
		if _, err := Load(bytes.NewBufferString(doc)); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}
