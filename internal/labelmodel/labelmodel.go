// Package labelmodel implements data programming (Ratner et al., NeurIPS
// 2016) as SecurityKG uses it: labeling functions vote on candidate items
// (token spans), a generative label model estimates each function's
// accuracy without ground truth via EM, and the resulting probabilistic
// labels become the CRF's training annotations.
//
// Votes use the convention: -1 abstain, 0..K-1 class index.
package labelmodel

import (
	"errors"
	"fmt"
	"math"
)

// Abstain is the vote value meaning "no opinion".
const Abstain = -1

// Matrix is the label matrix: one row per item, one column per labeling
// function; entries are class votes or Abstain.
type Matrix [][]int

// Validate checks matrix shape and vote ranges for k classes.
func (m Matrix) Validate(k int) error {
	if k < 2 {
		return errors.New("labelmodel: need at least 2 classes")
	}
	if len(m) == 0 {
		return errors.New("labelmodel: empty label matrix")
	}
	cols := len(m[0])
	if cols == 0 {
		return errors.New("labelmodel: no labeling functions")
	}
	for i, row := range m {
		if len(row) != cols {
			return fmt.Errorf("labelmodel: row %d has %d votes, want %d", i, len(row), cols)
		}
		for j, v := range row {
			if v < Abstain || v >= k {
				return fmt.Errorf("labelmodel: row %d lf %d vote %d out of range", i, j, v)
			}
		}
	}
	return nil
}

// MajorityVote returns the per-item posterior implied by simple majority
// voting over non-abstaining functions: probability mass proportional to
// vote counts, uniform when every function abstains.
func MajorityVote(m Matrix, k int) ([][]float64, error) {
	if err := m.Validate(k); err != nil {
		return nil, err
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		dist := make([]float64, k)
		total := 0
		for _, v := range row {
			if v >= 0 {
				dist[v]++
				total++
			}
		}
		if total == 0 {
			for c := range dist {
				dist[c] = 1 / float64(k)
			}
		} else {
			for c := range dist {
				dist[c] /= float64(total)
			}
		}
		out[i] = dist
	}
	return out, nil
}

// Model is the fitted generative label model: per-function accuracy and
// propensity plus class priors.
type Model struct {
	K          int
	Accuracy   []float64 // P(vote = y | vote != abstain), per function
	Propensity []float64 // P(vote != abstain), per function
	Prior      []float64 // class prior
}

// EM's settings.
const (
	emIters = 25    // EM iterations
	smooth  = 1.0   // additive smoothing for M-step counts
	minAcc  = 0.05  // accuracy floor to keep functions informative
	maxAcc  = 0.995 // accuracy ceiling to avoid degenerate certainty
)

// Fit estimates function accuracies by EM, initialized from majority
// vote, under a fixed uniform class prior (a learned prior collapses
// minority-class votes when one class dominates; see ARCHITECTURE.md).
// The model assumes functions err uniformly across wrong classes (the
// standard conditionally-independent formulation).
func Fit(m Matrix, k int) (*Model, error) {
	if err := m.Validate(k); err != nil {
		return nil, err
	}
	nLF := len(m[0])
	model := &Model{
		K:          k,
		Accuracy:   make([]float64, nLF),
		Propensity: make([]float64, nLF),
		Prior:      make([]float64, k),
	}
	for c := range model.Prior {
		model.Prior[c] = 1 / float64(k)
	}
	// Init from majority vote posteriors.
	post, _ := MajorityVote(m, k)
	for j := 0; j < nLF; j++ {
		model.Accuracy[j] = 0.7
	}
	for iter := 0; iter < emIters; iter++ {
		// M-step from current posteriors.
		accNum := make([]float64, nLF)
		accDen := make([]float64, nLF)
		propNum := make([]float64, nLF)
		for i, row := range m {
			for j, v := range row {
				if v == Abstain {
					continue
				}
				propNum[j]++
				accDen[j]++
				accNum[j] += post[i][v] // prob the vote was correct
			}
		}
		n := float64(len(m))
		for j := 0; j < nLF; j++ {
			model.Propensity[j] = propNum[j] / n
			a := (accNum[j] + smooth*0.7) / (accDen[j] + smooth)
			model.Accuracy[j] = clamp(a, minAcc, maxAcc)
		}
		// E-step: recompute posteriors under new parameters, in place.
		for i, row := range m {
			model.posteriorInto(post[i], row)
		}
	}
	return model, nil
}

// Posterior returns P(y | votes) under the fitted model.
func (mo *Model) Posterior(votes []int) []float64 {
	out := make([]float64, mo.K)
	mo.posteriorInto(out, votes)
	return out
}

// posteriorInto writes P(y | votes) into out, of length K: the log
// probabilities first, then normalized in place.
func (mo *Model) posteriorInto(out []float64, votes []int) {
	k := mo.K
	logp := out
	for c := 0; c < k; c++ {
		logp[c] = math.Log(mo.Prior[c] + 1e-12)
	}
	for j, v := range votes {
		if v == Abstain || j >= len(mo.Accuracy) {
			continue
		}
		acc := mo.Accuracy[j]
		wrong := (1 - acc) / float64(k-1)
		for c := 0; c < k; c++ {
			if c == v {
				logp[c] += math.Log(acc + 1e-12)
			} else {
				logp[c] += math.Log(wrong + 1e-12)
			}
		}
	}
	// Normalize.
	max := math.Inf(-1)
	for _, lp := range logp {
		if lp > max {
			max = lp
		}
	}
	var sum float64
	for c, lp := range logp {
		out[c] = math.Exp(lp - max)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// ProbLabels applies the model to every row of the matrix.
func (mo *Model) ProbLabels(m Matrix) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = mo.Posterior(row)
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
