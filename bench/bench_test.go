package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"securitykg/internal/graph"
	"securitykg/internal/search"
)

// TestSmoke runs all four workloads, untraced and traced, at toy size.
// No timing is asserted: the test keeps the harness compiling against
// the packages it measures and its correctness checks live.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < clients {
		t.Skipf("the benchmark needs %d CPUs", clients)
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runOne(runConfig{workload: name, seed: 5, seconds: 0.6, trace: traced, short: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: not correct: attempted=%d failed=%d problems=%v",
					name, traced, res.Attempted, res.Failed, res.Problems)
			}
			if !traced {
				for _, d := range endToEnd {
					if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
						t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", name, d.Name, v, d.Unit)
					}
				}
				continue
			}
			if v := res.Metrics["trace.accounted_share"].Value; v <= 0 {
				t.Errorf("%s: traced run accounted for %v of its time", name, v)
			}
			for k := range res.Metrics {
				if unitOf(k) == "" {
					t.Errorf("%s: metric %q is not in the catalogue", name, k)
				}
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
				t.Errorf("%s: trace file has %d spans (%v)", name, len(tf.Spans), err)
			}
		}
	}
}

// TestSpeedometer: a second of sampling gives a speed in a sane range,
// and a speedometer can be started again.
func TestSpeedometer(t *testing.T) {
	m, err := newSpeedometer()
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	m.start()
	if got := m.finish(); got != 1 {
		t.Errorf("no slice sampled: speed %v, want 1", got)
	}
	m.start()
	time.Sleep(10 * sliceEvery)
	if got := m.finish(); len(m.chase) < 5 || len(m.chase) != len(m.pipe) || got < 0.02 || got > 50 {
		t.Errorf("speed %v from %d chase and %d pipe slices", got, len(m.chase), len(m.pipe))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 95}, {250000, 95},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
		// The rule: at least ten samples lie beyond the chosen percentile.
		if got := tailPercentile(c.n); got > 50 && c.n*(100-got) < 1000 {
			t.Errorf("tailPercentile(%d) = p%d leaves fewer than ten samples beyond it", c.n, got)
		}
	}
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(1e6 * 1) // 1 ms
	}
	l.ns[999] = 50e6
	if ms, pct := l.tailMs(); pct != 95 || ms != 1 {
		t.Errorf("tail of 999×1ms + 1×50ms = %v ms at p%d, want 1 ms at p95", ms, pct)
	}
	if ms := l.percentileMs(100); ms != 50 {
		t.Errorf("p100 = %v ms, want 50", ms)
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values
// statistics.quantiles(values, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{5, 5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if s, ok := spreadShare([]float64{90, 100, 110, 100, 95, 105, 100, 100, 98, 102}); !ok || s <= 0 || s > 0.1 {
		t.Errorf("spreadShare = %v, %v", s, ok)
	}
}

// TestGeneratorDeterminism: the same seed gives the same graph and the
// same request stream, another seed gives others.
func TestGeneratorDeterminism(t *testing.T) {
	size := kgFull.scaled(0.02)
	build := func(seed int64) (*kgModel, string, string, string) {
		st := graph.New()
		m, err := buildKG(seed, size, st, search.NewIndex(nil))
		if err != nil {
			t.Fatal(err)
		}
		h, err := saveHash(st)
		if err != nil {
			t.Fatal(err)
		}
		return m, h, requestStreamHash(m, seed, false, 500), requestStreamHash(m, seed, true, 50)
	}
	m1, g1, p1, s1 := build(11)
	_, g2, p2, s2 := build(11)
	_, g3, p3, _ := build(12)
	if g1 != g2 || p1 != p2 || s1 != s2 {
		t.Errorf("same seed, different inputs: graph %s/%s point %s/%s scan %s/%s", g1, g2, p1, p2, s1, s2)
	}
	if g1 == g3 || p1 == p3 {
		t.Errorf("different seeds gave the same graph or request stream")
	}
	// The point mix is the one the catalogue states.
	g := newReqGen(m1, 11, 0, false)
	count := map[string]int{}
	for i := 0; i < 20000; i++ {
		count[g.next().class]++
	}
	for class, want := range map[string]float64{"seek": .40, "hop1": .25, "hop2": .10, "literal": .10, "search": .10, "expand": .05} {
		if got := float64(count[class]) / 20000; math.Abs(got-want) > 0.02 {
			t.Errorf("class %s is %.3f of the mix, want %.2f", class, got, want)
		}
	}
	// Zipf: the top rank is drawn far more often than a middling one.
	z := newReqGen(m1, 11, 0, false).iocZ
	hits := map[int]int{}
	for i := 0; i < 20000; i++ {
		hits[z.next()]++
	}
	if hits[0] < 5*max(hits[len(m1.iocs)/2], 1) {
		t.Errorf("bindings are not skewed: rank 0 drawn %d times, the middle rank %d", hits[0], hits[len(m1.iocs)/2])
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "b", Start: 40, End: 70}, // overlaps a: 20..70 is covered once
		{ID: 5, Parent: 2, Name: "b", Start: 80, End: 95}, // runs past its parent: clipped at 90
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{"client": 20, "handler": 80 - 50 - 10, "a": 30, "b": 30 + 15} {
		if got := int64(self[name]); got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	if busy := busyTimes(spans); busy["b"] != 45 {
		t.Errorf("busy time of b = %d, want 45", busy["b"])
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "y", 0)) // the untraced run must not need a tracer
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the Go
// catalogue in step, and inside the limits the acceptance contract sets.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found next to bench/")
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a why of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("outside the contract's limits: %d per-layer, %d end-to-end, run_seconds %d", len(perLayer), len(endToEnd), bj.RunSeconds)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over-long name or unit", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower")
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(median, spread float64) summaryOf { return summaryOf{Median: median, Spread: spread} }
	lower := metricDef{"latency_p50_ms", "ms", "lower", 0.15}
	higher := metricDef{"throughput_per_s", "1/s", "higher", 0.15}
	for _, c := range []struct {
		d    metricDef
		a, b summaryOf
		want string
	}{
		{lower, set(10, 0.02), set(11, 0.03), "ok"},
		{lower, set(10, 0.02), set(12, 0.03), "worse"},
		{lower, set(10, 0.02), set(5, 0.03), "ok"},
		{higher, set(100, 0.02), set(90, 0.01), "ok"},
		{higher, set(100, 0.02), set(80, 0.01), "worse"},
		{higher, set(100, 0.02), set(140, 0.01), "ok"},
		{lower, set(10, 0.30), set(20, 0.01), "unresolved"},
	} {
		if got := judge("w", c.d, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: %v -> %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}

	// Two files recorded in different contexts are refused.
	dir := t.TempDir()
	write := func(name string, gomaxprocs int) string {
		rf := resultFile{Context: machineContext{GOMAXPROCS: gomaxprocs, Commit: name},
			Summary: map[string]map[string]summaryOf{"hunt-point": {"latency_p50_ms": set(10, 0.01)}}}
		path := filepath.Join(dir, name+".json")
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", 2), write("b", 2), write("c", 1)
	if code := compareMain([]string{a, b}); code != 0 {
		t.Errorf("same context, same numbers: exit %d, want 0", code)
	}
	if code := compareMain([]string{a, c}); code != 2 {
		t.Errorf("GOMAXPROCS 2 vs 1: exit %d, want 2 (refused)", code)
	}
}
