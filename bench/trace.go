package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one decorated call: which seam, when, under which parent,
// for which request or report. Spans are recorded only in a traced run
// and stay in memory until the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`   // layer.operation, e.g. pipeline.parse
	Ref    string `json:"ref"`    // request or report id shared by one unit of work
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans and per-seam counts. A nil *tracer records
// nothing, so the untraced run pays one nil check per seam.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int64{}} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name, ref string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Ref: ref, Start: now})
	id := len(t.spans)
	t.counts[name]++
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are merged first, so two concurrent children
// do not subtract the same instant twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var curS, curE int64 = 0, -1
		flush := func() {
			if curE > curS {
				self -= curE - curS
			}
		}
		for _, c := range iv {
			cs, ce := max(c[0], s.Start), min(c[1], s.End)
			if ce <= cs {
				continue
			}
			if curE < curS || cs > curE {
				flush()
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		flush()
		out[s.Name] += time.Duration(self)
	}
	return out
}

// busyTimes sums span durations per name (a worker pool's busy time).
func busyTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	WallNs   int64            `json:"traced_wall_ns"`
	Counts   map[string]int64 `json:"counts"`
	SelfNs   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, wall time.Duration) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, WallNs: int64(wall), Counts: t.counts,
		SelfNs: map[string]int64{}, Spans: t.spans}
	for k, v := range selfTimes(t.spans) {
		tf.SelfNs[k] = int64(v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
