package labelmodel

import (
	"math"
	"math/rand"
	"testing"
)

// synth generates a label matrix from ground truth with known per-LF
// accuracies and abstain rates; returns matrix and truth.
func synth(n, k int, accs, props []float64, seed int64) (Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	truth := make([]int, n)
	m := make(Matrix, n)
	for i := 0; i < n; i++ {
		truth[i] = rng.Intn(k)
		row := make([]int, len(accs))
		for j := range accs {
			if rng.Float64() > props[j] {
				row[j] = Abstain
				continue
			}
			if rng.Float64() < accs[j] {
				row[j] = truth[i]
			} else {
				wrong := rng.Intn(k - 1)
				if wrong >= truth[i] {
					wrong++
				}
				row[j] = wrong
			}
		}
		m[i] = row
	}
	return m, truth
}

func accuracy(post [][]float64, truth []int) float64 {
	correct := 0
	for i, dist := range post {
		best, bestP := 0, -1.0
		for c, p := range dist {
			if p > bestP {
				best, bestP = c, p
			}
		}
		if best == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(truth))
}

func TestValidate(t *testing.T) {
	good := Matrix{{0, 1, Abstain}, {1, 1, 0}}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	cases := []struct {
		m Matrix
		k int
	}{
		{Matrix{}, 2},
		{Matrix{{}}, 2},
		{Matrix{{0}, {0, 1}}, 2}, // ragged
		{Matrix{{2}}, 2},         // vote out of range
		{Matrix{{-2}}, 2},        // below abstain
		{Matrix{{0}}, 1},         // k too small
	}
	for i, c := range cases {
		if err := c.m.Validate(c.k); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestMajorityVoteBasics(t *testing.T) {
	m := Matrix{
		{0, 0, 1},
		{Abstain, Abstain, Abstain},
		{1, Abstain, 1},
	}
	post, err := MajorityVote(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if post[0][0] <= post[0][1] {
		t.Errorf("row 0 should favor class 0: %+v", post[0])
	}
	if post[1][0] != 0.5 || post[1][1] != 0.5 {
		t.Errorf("all-abstain row should be uniform: %+v", post[1])
	}
	if post[2][1] != 1.0 {
		t.Errorf("unanimous row: %+v", post[2])
	}
}

func TestFitRecoversAccuracyOrdering(t *testing.T) {
	accs := []float64{0.95, 0.70, 0.55}
	props := []float64{0.8, 0.8, 0.8}
	m, _ := synth(3000, 3, accs, props, 7)
	model, err := Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(model.Accuracy[0] > model.Accuracy[1] && model.Accuracy[1] > model.Accuracy[2]) {
		t.Errorf("EM did not recover accuracy ordering: %+v", model.Accuracy)
	}
	if math.Abs(model.Accuracy[0]-0.95) > 0.08 {
		t.Errorf("best LF accuracy estimate off: %.3f", model.Accuracy[0])
	}
	for j, p := range model.Propensity {
		if math.Abs(p-0.8) > 0.05 {
			t.Errorf("propensity %d estimate off: %.3f", j, p)
		}
	}
}

func TestFitBeatsMajorityVoteWithHeterogeneousLFs(t *testing.T) {
	// One excellent LF drowned out by three mediocre ones: weighting by
	// estimated accuracy must beat unweighted majority vote.
	accs := []float64{0.97, 0.55, 0.55, 0.55}
	props := []float64{0.9, 0.9, 0.9, 0.9}
	m, truth := synth(4000, 4, accs, props, 11)
	mv, _ := MajorityVote(m, 4)
	model, err := Fit(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	em := model.ProbLabels(m)
	accMV := accuracy(mv, truth)
	accEM := accuracy(em, truth)
	if accEM <= accMV {
		t.Errorf("EM (%.3f) should beat majority vote (%.3f)", accEM, accMV)
	}
	if accEM < 0.80 {
		t.Errorf("EM accuracy too low: %.3f", accEM)
	}
}

func TestPosteriorSumsToOne(t *testing.T) {
	m, _ := synth(200, 3, []float64{0.8, 0.7}, []float64{0.7, 0.7}, 3)
	model, err := Fit(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m {
		post := model.Posterior(row)
		sum := 0.0
		for _, p := range post {
			if p < 0 || p > 1 {
				t.Fatalf("posterior out of range: %+v", post)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posterior sums to %f", sum)
		}
	}
}

func TestPosteriorAllAbstainIsPrior(t *testing.T) {
	m, _ := synth(500, 2, []float64{0.9}, []float64{0.5}, 5)
	model, err := Fit(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	post := model.Posterior([]int{Abstain})
	for c := range post {
		if math.Abs(post[c]-model.Prior[c]) > 1e-9 {
			t.Errorf("all-abstain posterior should equal prior: %+v vs %+v", post, model.Prior)
		}
	}
}

func TestHighAccuracyLFDominatesConflict(t *testing.T) {
	accs := []float64{0.98, 0.55}
	props := []float64{0.95, 0.95}
	m, _ := synth(4000, 2, accs, props, 13)
	model, err := Fit(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	// When the two disagree, the high-accuracy function should win.
	if post := model.Posterior([]int{0, 1}); post[0] <= post[1] {
		t.Errorf("conflict resolution: posterior %+v (accs %+v)", post, model.Accuracy)
	}
}

func TestFitDeterministic(t *testing.T) {
	m, _ := synth(300, 3, []float64{0.8, 0.6}, []float64{0.8, 0.8}, 17)
	m1, _ := Fit(m, 3)
	m2, _ := Fit(m, 3)
	for j := range m1.Accuracy {
		if m1.Accuracy[j] != m2.Accuracy[j] {
			t.Fatal("Fit is not deterministic")
		}
	}
}

func TestFitErrorPropagation(t *testing.T) {
	if _, err := Fit(Matrix{}, 2); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := MajorityVote(Matrix{{5}}, 2); err == nil {
		t.Error("bad vote accepted")
	}
}
