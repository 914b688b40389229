package jsonenc

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendFloatMatchesMarshal holds AppendFloat to json.Marshal on the
// format switch's edges and on random bit patterns of every magnitude.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 1e21 - 65536, 123456789e13,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64, 1.5e-9, 2.5e-10, 3e100, 1e-100, 0.30000000000000004}
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		fs = append(fs, f, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(50)-25)))
	}
	for _, f := range fs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
}
