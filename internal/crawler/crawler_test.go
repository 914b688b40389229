package crawler

import (
	"context"
	"errors"
	"regexp"
	"sync"
	"testing"
	"time"

	"securitykg/internal/ctirep"
	"securitykg/internal/sources"
)

// reContinuation matches continuation-page URLs (/report/<i>/<page>).
var reContinuation = regexp.MustCompile(`/report/\d+/\d+$`)

func collect(t *testing.T, f *Framework) []ctirep.RawFile {
	t.Helper()
	var mu sync.Mutex
	var out []ctirep.RawFile
	err := f.RunOnce(context.Background(), func(rf ctirep.RawFile) {
		mu.Lock()
		out = append(out, rf)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	return out
}

func TestCrawlCollectsAllReports(t *testing.T) {
	specs := sources.DefaultSources(12)[:5]
	web := sources.NewWeb(1, specs)
	f := New(web, specs, Config{Workers: 4})
	files := collect(t, f)

	// Every report emits >= 1 file; multi-page HTML reports emit 2.
	perReport := map[string]bool{}
	extraPages := 0
	for _, rf := range files {
		if reContinuation.MatchString(rf.URL) {
			extraPages++
			continue
		}
		perReport[rf.URL] = true
	}
	want := 5 * 12
	if len(perReport) != want {
		t.Fatalf("collected %d distinct reports, want %d", len(perReport), want)
	}
	st := f.Stats()
	if st.Collected != int64(len(files)) {
		t.Errorf("stats.Collected=%d files=%d", st.Collected, len(files))
	}
	if len(st.PerSource) != 5 {
		t.Errorf("per-source stats missing: %+v", st.PerSource)
	}
}

func TestCrawlPDFAndHTMLFormats(t *testing.T) {
	all := sources.DefaultSources(4)
	var specs []sources.SourceSpec
	for _, s := range all {
		if s.Format == "pdf" {
			specs = append(specs, s)
			break
		}
	}
	for _, s := range all {
		if s.Format == "html" {
			specs = append(specs, s)
			break
		}
	}
	web := sources.NewWeb(1, specs)
	f := New(web, specs, Config{})
	files := collect(t, f)
	formats := map[string]int{}
	for _, rf := range files {
		formats[rf.Format]++
	}
	if formats["pdf"] != 4 {
		t.Errorf("pdf files: %d, want 4", formats["pdf"])
	}
	if formats["html"] < 4 {
		t.Errorf("html files: %d, want >= 4", formats["html"])
	}
}

func TestIncrementalRecrawlSkipsSeen(t *testing.T) {
	specs := sources.DefaultSources(8)[:2]
	web := sources.NewWeb(1, specs)
	f := New(web, specs, Config{})
	first := collect(t, f)
	if len(first) == 0 {
		t.Fatal("first run collected nothing")
	}
	second := collect(t, f)
	if len(second) != 0 {
		t.Errorf("second run re-emitted %d files", len(second))
	}
}

func TestRetryOnTransientFailures(t *testing.T) {
	specs := sources.DefaultSources(6)[:2]
	web := sources.NewWeb(1, specs)
	web.FailEveryN = 3 // a third of URLs fail on first attempt
	f := New(web, specs, Config{})
	files := collect(t, f)
	perReport := map[string]bool{}
	for _, rf := range files {
		if !reContinuation.MatchString(rf.URL) {
			perReport[rf.URL] = true
		}
	}
	if len(perReport) != 12 {
		t.Errorf("retries should recover all 12 reports, got %d", len(perReport))
	}
	if f.Stats().Retries == 0 {
		t.Error("expected retries to be counted")
	}
}

// downFetcher fails every fetch with a transient error.
type downFetcher struct{ fetches atomic64 }

func (d *downFetcher) Fetch(url string) (*sources.Page, error) {
	d.fetches.inc()
	return nil, &sources.TransientError{URL: url}
}

// A URL that never comes back is fetched once plus MaxRetries times, and
// the crawler neither counts nor waits for a retry after the last attempt:
// the waits are 50+100+200 ms, where one more would add 400.
func TestRetriesStopAtLastAttempt(t *testing.T) {
	down := &downFetcher{}
	f := New(down, nil, Config{MaxRetries: 3})
	start := time.Now()
	_, err := f.fetchRetry("https://down.example/report/1")
	elapsed := time.Since(start)
	var te *sources.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want the last transient error wrapped", err)
	}
	if n := down.fetches.val(); n != 4 {
		t.Errorf("fetches = %d, want 4", n)
	}
	if st := f.Stats(); st.Retries != 3 || st.Fetches != 4 {
		t.Errorf("stats retries=%d fetches=%d, want 3 and 4", st.Retries, st.Fetches)
	}
	if elapsed >= 700*time.Millisecond {
		t.Errorf("gave up after %v: a wait follows the last attempt", elapsed)
	}
}

func TestRebootAfterPanic(t *testing.T) {
	specs := sources.DefaultSources(3)[:1]
	pf := &panicFetcher{inner: sources.NewWeb(1, specs), panicsLeft: 1}
	f := New(pf, specs, Config{})
	files := collect(t, f)
	if len(files) == 0 {
		t.Fatal("crawl did not recover after panic")
	}
	if f.Stats().Reboots != 1 {
		t.Errorf("reboots = %d, want 1", f.Stats().Reboots)
	}
}

type panicFetcher struct {
	inner      sources.Fetcher
	mu         sync.Mutex
	panicsLeft int
}

func (p *panicFetcher) Fetch(url string) (*sources.Page, error) {
	p.mu.Lock()
	if p.panicsLeft > 0 {
		p.panicsLeft--
		p.mu.Unlock()
		panic("injected crawler fault")
	}
	p.mu.Unlock()
	return p.inner.Fetch(url)
}

func TestContextCancellation(t *testing.T) {
	specs := sources.DefaultSources(50)
	web := sources.NewWeb(1, specs)
	web.Latency = 2 * time.Millisecond
	f := New(web, specs, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var count atomic64
	go func() {
		done <- f.RunOnce(ctx, func(ctirep.RawFile) { count.inc() })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Log("run finished before cancellation took effect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the crawl")
	}
	if count.val() >= int64(50*50) {
		t.Error("crawl completed fully despite cancellation")
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) inc() { a.mu.Lock(); a.v++; a.mu.Unlock() }
func (a *atomic64) val() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

func TestThroughputMeterPositive(t *testing.T) {
	specs := sources.DefaultSources(10)[:4]
	web := sources.NewWeb(1, specs)
	f := New(web, specs, Config{Workers: 4})
	collect(t, f)
	st := f.Stats()
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	if rpm := st.ReportsPerMinute(); rpm <= 0 {
		t.Errorf("throughput %f", rpm)
	}
}

func TestPeriodicStartIncrementallyCrawls(t *testing.T) {
	specs := sources.DefaultSources(5)[:1]
	web := sources.NewWeb(1, specs)
	f := New(web, specs, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var count atomic64
	f.Start(ctx, 10*time.Millisecond, func(ctirep.RawFile) { count.inc() })
	deadline := time.After(3 * time.Second)
	for count.val() < 5 {
		select {
		case <-deadline:
			t.Fatalf("periodic crawl collected only %d", count.val())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Let a few more periods elapse: incremental dedup means no growth.
	time.Sleep(50 * time.Millisecond)
	if got := count.val(); got > 6 { // 5 reports + possible 1 multipage page
		t.Errorf("periodic runs re-collected: %d", got)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	specs := sources.DefaultSources(3)[:1]
	web := sources.NewWeb(1, specs)
	f := New(web, specs, Config{})
	collect(t, f)
	st := f.Stats()
	st.PerSource["tampered"] = 99
	if _, ok := f.Stats().PerSource["tampered"]; ok {
		t.Error("Stats exposes internal map")
	}
}
