package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain is `bench compare A.json B.json`: one row per end-to-end
// metric × workload with both medians, the bound, and a verdict. A is
// the parent (or the first set), B the change (or the second set).
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  either set's own spread (q3−q1 over median) is wider than
//	            the bound, so the medians cannot settle the question
//
// The exit code is 1 if any row is worse, 2 on unusable input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if ca, cb := a.Context.comparable(), b.Context.comparable(); ca != cb {
		fmt.Fprintf(os.Stderr, "bench compare: the two files were recorded in different contexts and cannot be compared\n  %s: %+v\n  %s: %+v\n",
			args[0], ca, args[1], cb)
		return 2
	}
	rows := compareSets(a, b)
	fmt.Printf("%-18s %-18s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "spread", "verdict")
	worse := false
	for _, r := range rows {
		fmt.Printf("%-18s %-18s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, r.Change*100, r.Bound*100, r.Spread*100, r.Verdict)
		worse = worse || r.Verdict == "worse"
	}
	if worse {
		return 1
	}
	return 0
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Summary) == 0 {
		return nil, fmt.Errorf("%s: no summary: not a bench result file", path)
	}
	return &rf, nil
}

type compareRow struct {
	Workload, Metric string
	A, B             float64
	Change           float64 // how much worse B is, as a share of A (negative = better)
	Bound            float64
	Spread           float64 // the wider of the two sets' own spreads
	Verdict          string
}

func compareSets(a, b *resultFile) []compareRow {
	var rows []compareRow
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			sa, okA := a.Summary[w][d.Name]
			sb, okB := b.Summary[w][d.Name]
			if !okA || !okB {
				continue
			}
			rows = append(rows, judge(w, d, sa, sb))
		}
	}
	return rows
}

func judge(workload string, d metricDef, a, b summaryOf) compareRow {
	r := compareRow{Workload: workload, Metric: d.Name, A: a.Median, B: b.Median, Bound: d.Bound,
		Spread: max(a.Spread, b.Spread)}
	if a.Median != 0 {
		r.Change = (b.Median - a.Median) / a.Median
		if d.Better == "higher" {
			r.Change = -r.Change
		}
	}
	switch {
	case r.Spread > d.Bound:
		r.Verdict = "unresolved"
	case r.Change > d.Bound:
		r.Verdict = "worse"
	default:
		r.Verdict = "ok"
	}
	return r
}
