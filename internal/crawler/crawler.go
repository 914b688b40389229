// Package crawler implements SecurityKG's collection stage: a framework of
// per-source crawlers (one crawler per data source, as in the paper) with
// a shared worker pool, retry with backoff on transient failures, panic
// recovery ("reboot after failure"), incremental dedup so periodic runs
// only emit new reports, and throughput metering for the paper's
// 350+ reports/min claim.
package crawler

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securitykg/internal/ctirep"
	"securitykg/internal/htmlparse"
	"securitykg/internal/sources"
)

// Config tunes the framework.
type Config struct {
	// Workers is the number of source crawls that run concurrently
	// (default 4).
	Workers int
	// MaxRetries bounds per-URL retry attempts on transient errors
	// (default 3).
	MaxRetries int
	// Logger receives failure reports; nil silences logging.
	Logger *log.Logger
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
}

// retryDelay is the base backoff delay after a transient fetch error,
// doubled per attempt.
const retryDelay = 50 * time.Millisecond

// Stats aggregates framework counters.
type Stats struct {
	Collected int64         // raw files emitted
	Fetches   int64         // fetch attempts
	Retries   int64         // transient retries
	Failures  int64         // URLs given up on
	Reboots   int64         // crawler goroutines restarted after panic
	Elapsed   time.Duration // wall time of the last run
	PerSource map[string]int64
}

// ReportsPerMinute computes the headline throughput metric.
func (s Stats) ReportsPerMinute() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Collected) / s.Elapsed.Minutes()
}

// Framework coordinates one crawler per source over a shared worker pool.
type Framework struct {
	fetcher sources.Fetcher
	specs   []sources.SourceSpec
	cfg     Config

	mu        sync.Mutex
	seen      map[string]bool // canonical report URLs already collected
	perSource map[string]int64

	collected atomic.Int64
	fetches   atomic.Int64
	retries   atomic.Int64
	failures  atomic.Int64
	reboots   atomic.Int64
	elapsed   atomic.Int64 // nanoseconds
}

// New builds a framework over the fetcher and source specs.
func New(fetcher sources.Fetcher, specs []sources.SourceSpec, cfg Config) *Framework {
	cfg.defaults()
	return &Framework{
		fetcher:   fetcher,
		specs:     specs,
		cfg:       cfg,
		seen:      make(map[string]bool),
		perSource: make(map[string]int64),
	}
}

// MarkSeen records canonical report URLs as already collected, so a fresh
// framework can resume another instance's incremental state.
func (f *Framework) MarkSeen(urls []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, u := range urls {
		f.seen[u] = true
	}
}

// Stats returns a snapshot of the counters.
func (f *Framework) Stats() Stats {
	f.mu.Lock()
	per := make(map[string]int64, len(f.perSource))
	for k, v := range f.perSource {
		per[k] = v
	}
	f.mu.Unlock()
	return Stats{
		Collected: f.collected.Load(),
		Fetches:   f.fetches.Load(),
		Retries:   f.retries.Load(),
		Failures:  f.failures.Load(),
		Reboots:   f.reboots.Load(),
		Elapsed:   time.Duration(f.elapsed.Load()),
		PerSource: per,
	}
}

// RunOnce crawls every source once, invoking emit for each newly collected
// raw file (multi-page reports emit one file per page). It is incremental:
// URLs collected in previous runs are skipped.
func (f *Framework) RunOnce(ctx context.Context, emit func(ctirep.RawFile)) error {
	start := time.Now()
	jobs := make(chan sources.SourceSpec)
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for i := 0; i < f.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range jobs {
				if err := f.crawlSourceWithReboot(ctx, spec, emit); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, spec := range f.specs {
		select {
		case jobs <- spec:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	f.elapsed.Store(int64(time.Since(start)))
	return firstErr
}

// Start schedules periodic incremental crawls every period until the
// context is cancelled. The first run starts immediately.
func (f *Framework) Start(ctx context.Context, period time.Duration, emit func(ctirep.RawFile)) {
	go func() {
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			if err := f.RunOnce(ctx, emit); err != nil && f.cfg.Logger != nil {
				f.cfg.Logger.Printf("crawler: run: %v", err)
			}
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
		}
	}()
}

// crawlSourceWithReboot runs one source crawl, restarting after panics up
// to 3 times (the paper's "reboot after failure" behaviour).
func (f *Framework) crawlSourceWithReboot(ctx context.Context, spec sources.SourceSpec, emit func(ctirep.RawFile)) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		panicked := func() (p bool) {
			defer func() {
				if r := recover(); r != nil {
					p = true
					f.reboots.Add(1)
					if f.cfg.Logger != nil {
						f.cfg.Logger.Printf("crawler %s: panic, rebooting: %v", spec.Slug, r)
					}
				}
			}()
			err = f.crawlSource(ctx, spec, emit)
			return false
		}()
		if !panicked {
			return err
		}
	}
	return fmt.Errorf("crawler %s: gave up after repeated panics", spec.Slug)
}

// crawlSource walks a source's index pages, collecting every new report
// (and its continuation pages).
func (f *Framework) crawlSource(ctx context.Context, spec sources.SourceSpec, emit func(ctirep.RawFile)) error {
	indexURL := fmt.Sprintf("%s/index/0", spec.BaseURL())
	for indexURL != "" {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := f.fetchRetry(indexURL)
		if err != nil {
			f.failures.Add(1)
			return fmt.Errorf("crawler %s: index %s: %w", spec.Slug, indexURL, err)
		}
		doc := htmlparse.Parse(string(page.Body))
		for _, a := range doc.FindAll("a.report-link") {
			href, ok := a.Attr("href")
			if !ok || href == "" {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			f.collectReport(spec, href, emit)
		}
		indexURL = ""
		if next := doc.Find("a.next-index"); next != nil {
			if href, ok := next.Attr("href"); ok {
				indexURL = href
			}
		}
	}
	return nil
}

// collectReport fetches one report and its continuation pages, emitting a
// RawFile per page. Already-seen reports are skipped (incremental).
func (f *Framework) collectReport(spec sources.SourceSpec, url string, emit func(ctirep.RawFile)) {
	f.mu.Lock()
	if f.seen[url] {
		f.mu.Unlock()
		return
	}
	f.seen[url] = true
	f.mu.Unlock()

	pageURL := url
	for pageURL != "" {
		page, err := f.fetchRetry(pageURL)
		if err != nil {
			f.failures.Add(1)
			if f.cfg.Logger != nil {
				f.cfg.Logger.Printf("crawler %s: report %s: %v", spec.Slug, pageURL, err)
			}
			return
		}
		rf := ctirep.RawFile{
			Source:    spec.Slug,
			URL:       pageURL,
			Format:    "html",
			Body:      page.Body,
			FetchedAt: time.Now().UTC(),
		}
		if strings.Contains(page.ContentType, "pdf") {
			rf.Format = "pdf"
		} else if next := htmlparse.Parse(string(page.Body)).Find("a.next-page"); next != nil {
			rf.Next, _ = next.Attr("href")
		}
		emit(rf)
		f.collected.Add(1)
		f.mu.Lock()
		f.perSource[spec.Slug]++
		f.mu.Unlock()
		pageURL = rf.Next
	}
}

// fetchRetry fetches a URL with exponential backoff on transient errors:
// at most MaxRetries retries after the first attempt, and no wait after
// the last one.
func (f *Framework) fetchRetry(url string) (*sources.Page, error) {
	delay := retryDelay
	for attempt := 0; ; attempt++ {
		f.fetches.Add(1)
		page, err := f.fetcher.Fetch(url)
		if err == nil {
			return page, nil
		}
		if _, transient := err.(*sources.TransientError); !transient {
			return nil, err
		}
		if attempt == f.cfg.MaxRetries {
			return nil, fmt.Errorf("crawler: retries exhausted: %w", err)
		}
		f.retries.Add(1)
		time.Sleep(delay)
		delay *= 2
	}
}
