package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workload is what the runner needs from each of the four workloads.
type workload interface {
	// setup builds everything the run needs; teardown undoes it, so
	// set-up can be repeated and timed.
	setup() error
	teardown()
	// drive runs the workload's closed loop for about dur. A nil tracer
	// is the untraced run; with a tracer the decorators record spans
	// while the same clients send the same seeded inputs.
	drive(dur time.Duration, tr *tracer) (*driveStats, error)
	// check runs the end-of-run correctness checks and returns what
	// failed.
	check() []string
	// layers takes the per-layer numbers no seam gives: direct calls,
	// replays one entry point deeper, counter deltas. traced is the
	// traced drive's result. It returns where the traced time went, as
	// "layer=share ..." with the largest first.
	layers(traced *driveStats, tr *tracer, m metricSet) (string, error)
	streamHash() string
}

// driveStats is what one drive measured.
type driveStats struct {
	mu sync.Mutex

	wall       time.Duration
	throughput float64    // the workload's headline rate
	headline   *latencies // the workload's headline latency samples
	extra      map[string]float64

	reads, firstRow latencies
	perClass        map[string]int64
	bytesOut        int64
	http429         int64
	http5xx         int64
	planHits        int64 // plan-cache lookups served / not served during the drive
	planMisses      int64

	attempted, failed int64
	errs              []string // first few failures, for the report
}

func newDriveStats() *driveStats {
	return &driveStats{extra: map[string]float64{}, perClass: map[string]int64{}}
}

func (d *driveStats) noteStatus(code int) {
	switch {
	case code == 429:
		d.http429++
	case code >= 500:
		d.http5xx++
	}
}

func (d *driveStats) fail(err error) {
	d.mu.Lock()
	d.failed++
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err.Error())
	}
	d.mu.Unlock()
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool // shrunken inputs: the smoke test only
	outDir   string
}

// runResult is one run's outcome: the driver's four keys plus what a
// reader of the result file wants next to them.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   metricSet         `json:"metrics"`
	Notes     map[string]string `json:"notes,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

// Set-up is run and timed up to setupReps times, while the repeats fit
// in setupBudget; setup_s is the median.
const (
	setupReps   = 3
	setupBudget = 7 * time.Second
)

func newWorkload(cfg runConfig, dir string) (workload, error) {
	size := kgFull
	if cfg.short {
		size = kgFull.scaled(0.02)
	}
	switch cfg.workload {
	case "corpus-ingest":
		return newCorpus(cfg.seed, cfg.short, dir), nil
	case "hunt-point", "hunt-scan":
		return newHunt(cfg.workload, cfg.seed, size), nil
	case "ingest-under-hunt":
		return newUnderHunt(cfg.seed, size, cfg.short, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// runOne runs one workload once, untraced or traced.
func runOne(cfg runConfig) (*runResult, error) {
	if runtime.NumCPU() < clients {
		return nil, fmt.Errorf("bench needs at least %d CPUs for its %d clients, have %d", clients, clients, runtime.NumCPU())
	}
	dir, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(cfg, dir)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: metricSet{}, Notes: map[string]string{}}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	warm := warmup
	if cfg.short {
		warm = dur / 2
	}

	reps := setupReps
	if cfg.trace || cfg.short {
		reps = 1
	}
	// Every timed part runs beside the speedometer, and the bounded
	// timings are stated at the reference speed (calibrate.go says why).
	meter, err := newSpeedometer()
	if err != nil {
		return nil, err
	}
	defer meter.close()
	var setups []float64 // seconds at the reference speed
	var spent, last time.Duration
	for i := 0; i < reps && (i == 0 || spent+last <= setupBudget); i++ {
		if i > 0 {
			w.teardown()
		}
		meter.start()
		t0 := time.Now()
		err := w.setup()
		last = time.Since(t0)
		speed := meter.finish()
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, last.Seconds()*speed)
		spent += last
	}
	defer w.teardown()
	res.Notes["request_stream_hash"] = w.streamHash()

	if _, err := w.drive(warm, nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", cfg.workload, err)
	}

	var all []*driveStats
	if !cfg.trace {
		meter.start()
		st, err := w.drive(dur, nil)
		speed := meter.finish()
		if err != nil {
			return nil, fmt.Errorf("%s: timed run: %w", cfg.workload, err)
		}
		all = append(all, st)
		tail, pct := st.headline.tailMs()
		res.Metrics.set("setup_s", median(setups))
		res.Metrics.set("throughput_per_s", st.throughput/speed)
		res.Metrics.set("latency_p50_ms", st.headline.percentileMs(50)*speed)
		res.Metrics.set("latency_tail_ms", tail*speed)
		res.Metrics.set("machine.speed", speed)
		res.Notes["as_measured"] = fmt.Sprintf("throughput_per_s=%.4f latency_p50_ms=%.4f latency_tail_ms=%.4f (machine speed %.4f)",
			st.throughput, st.headline.percentileMs(50), tail, speed)
		res.Notes["latency_samples"] = fmt.Sprint(st.headline.count())
		res.Notes["latency_tail_percentile"] = fmt.Sprint(pct)
		res.Notes["latency_percentiles_ms"] = fmt.Sprintf("p75=%.4f p90=%.4f p95=%.4f p99=%.4f",
			st.headline.percentileMs(75), st.headline.percentileMs(90), st.headline.percentileMs(95), st.headline.percentileMs(99))
		res.Metrics.set("e2e.latency_p99_ms", st.headline.percentileMs(99))
		for k, v := range st.extra {
			res.Metrics.set(k, v)
		}
	} else {
		// A third of the time untraced, a third traced, the rest for the
		// replays: the untraced part prices the tracing and supplies the
		// workload-specific end-to-end numbers.
		meter.start()
		plain, err := w.drive(dur/3, nil)
		if err != nil {
			meter.finish()
			return nil, fmt.Errorf("%s: untraced part: %w", cfg.workload, err)
		}
		tr := newTracer()
		traced, err := w.drive(dur/3, tr)
		res.Metrics.set("machine.speed", meter.finish())
		if err != nil {
			return nil, fmt.Errorf("%s: traced part: %w", cfg.workload, err)
		}
		all = append(all, plain, traced)
		res.Metrics.set("trace.overhead_share", 1-traced.throughput/plain.throughput)
		for k, v := range plain.extra {
			res.Metrics.set(k, v)
		}
		res.Metrics.set("e2e.latency_p99_ms", plain.headline.percentileMs(99))
		shares, err := w.layers(traced, tr, res.Metrics)
		if err != nil {
			return nil, fmt.Errorf("%s: layer replays: %w", cfg.workload, err)
		}
		res.Notes["layer_shares"] = shares
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := tr.write(path, cfg.workload, cfg.seed, traced.wall); err != nil {
			return nil, err
		}
		res.Notes["trace_file"] = path
	}

	res.Problems = w.check()
	for _, st := range all {
		res.Attempted += st.attempted
		res.Failed += st.failed
		res.Problems = append(res.Problems, st.errs...)
	}
	if !cfg.trace {
		res.Metrics.set("heap_live_mb", float64(liveHeap())/(1<<20))
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, nil
}
