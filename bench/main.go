// Command bench is the repository's performance ledger: four workloads,
// five end-to-end metrics on each, and a per-layer breakdown taken from
// outside the program — by decorating the interfaces it is wired from,
// timing its public entry points, and reading its public counters.
//
//	go run ./bench -seed 1                      all four workloads, untraced and traced
//	go run ./bench -seed 1 -runs 10             a set of runs (seeds 1..10), one result file
//	go run ./bench --workload hunt-point --seed 3 --seconds 15 --trace 0
//	go run ./bench compare A.json B.json        regressions between two sets
//
// README.md in this directory is the catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// resultFile is one set of runs.
type resultFile struct {
	Context machineContext                  `json:"context"`
	Seeds   []int64                         `json:"seeds"`
	Runs    []*runResult                    `json:"runs"`
	Summary map[string]map[string]summaryOf `json:"summary"` // workload -> metric -> summary over the set's runs
}

type summaryOf struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Spread float64   `json:"spread_share,omitempty"` // (q3-q1)/median; absent below two runs
	Values []float64 `json:"values"`
}

func summarize(runs []*runResult) map[string]map[string]summaryOf {
	vals := map[string]map[string][]float64{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
		}
	}
	out := map[string]map[string]summaryOf{}
	for w, byMetric := range vals {
		out[w] = map[string]summaryOf{}
		for name, vs := range byMetric {
			s := summaryOf{Unit: unitOf(name), Median: median(vs), Values: vs}
			if len(vs) >= 2 {
				s.Q1, s.Q3 = quartiles(vs)
				s.Spread, _ = spreadShare(vs)
			}
			out[w][name] = s
		}
	}
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadFlag = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 15, "length of the timed run")
		trace        = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		runs         = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result files, traces and scratch data")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	modes := []bool{false, true}
	if *trace == 0 || *trace == 1 {
		modes = []bool{*trace == 1}
	}

	rf := resultFile{Context: gatherContext(*seconds)}
	ok := true
	for i := 0; i < *runs; i++ {
		rf.Seeds = append(rf.Seeds, *seed+int64(i))
		for _, name := range names {
			for _, traced := range modes {
				res, err := runOne(runConfig{workload: name, seed: *seed + int64(i), seconds: float64(*seconds),
					trace: traced, outDir: *outDir})
				if err != nil {
					fatal(err)
				}
				rf.Runs = append(rf.Runs, res)
				ok = ok && res.Correct
				printRun(os.Stderr, res)
			}
		}
	}
	rf.Summary = summarize(rf.Runs)
	path := filepath.Join(*outDir, fmt.Sprintf("result-%s.json", time.Now().UTC().Format("20060102T150405")))
	if err := writeJSON(path, rf); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "result file: %s\n", path)

	// One workload, one mode: the last line of standard output is the
	// run's result in the form the acceptance driver reads.
	if len(rf.Runs) == 1 {
		r := rf.Runs[0]
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		line, _ := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted int64     `json:"attempted"`
			Failed    int64     `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics.fill(defs)})
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRun prints every metric of a run by name, with its unit.
func printRun(w *os.File, r *runResult) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed)
	names := slices.Sorted(maps.Keys(r.Metrics))
	// End-to-end metrics first, in catalogue order.
	rank := map[string]int{}
	for i, d := range endToEnd {
		rank[d.Name] = i - len(endToEnd)
	}
	sort.SliceStable(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
	for _, n := range names {
		if v := r.Metrics[n]; v.Value != 0 {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(r.Notes)) {
		fmt.Fprintf(w, "  # %s: %s\n", k, r.Notes[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  ! %s\n", p)
	}
}
