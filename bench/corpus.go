package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"securitykg/internal/config"
	"securitykg/internal/connector"
	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/graph"
	"securitykg/internal/ner"
	"securitykg/internal/pipeline"
	"securitykg/internal/replication"
	"securitykg/internal/search"
	"securitykg/internal/sources"
	"securitykg/internal/storage"
)

// corpus is corpus-ingest: the paper's front half as a batch job. One
// round crawls a fixed synthetic web (42 sources × perSource reports),
// runs it through the default pipeline into a durable leader with one
// tailing follower, and stops the clock when the follower has applied
// the leader's last sequence number. A drive is as many rounds as fit;
// every round starts from empty data directories, so rounds are equal
// work and the median round is the number.
type corpus struct {
	seed      int64
	dir       string
	perSource int
	cfg       config.Config

	specs  []sources.SourceSpec
	web    *sources.Web
	ner    *ner.Extractor
	trainS float64

	rounds int
	last   *ingestRound // the most recent round, kept open for check and layers

	// What the most recent traced drive saw: its rounds, their summed
	// wall time, and the /metrics counters' movement across it.
	tracedRounds int
	tracedWall   time.Duration
	tracedDelta  map[string]float64
}

func newCorpus(seed int64, short bool, dir string) *corpus {
	c := &corpus{seed: seed, dir: dir, perSource: 30, cfg: config.Default()}
	if short {
		c.perSource = 2
		c.cfg.NER.TrainDocs = 40
	}
	return c
}

func (c *corpus) setup() error {
	c.specs = sources.DefaultSources(c.perSource)
	c.web = sources.NewWeb(c.seed, c.specs)
	// The extractor is trained as securitykg.New trains it: data
	// programming over a sample of the corpus, no manual labels.
	var texts []string
	per := c.cfg.NER.TrainDocs/len(c.specs) + 1
	for _, spec := range c.specs {
		for i := 0; i < per && i < spec.Reports && len(texts) < c.cfg.NER.TrainDocs; i++ {
			texts = append(texts, strings.Join(c.web.GenerateTruth(spec, i).Paragraphs, "\n"))
		}
	}
	t0 := time.Now()
	ext, err := ner.Train(texts, ner.TrainOptions{
		Strategy: ner.LabelingStrategy(c.cfg.NER.Strategy), Epochs: c.cfg.NER.Epochs, Seed: c.seed,
	})
	if err != nil {
		return fmt.Errorf("NER training: %w", err)
	}
	c.ner, c.trainS = ext, time.Since(t0).Seconds()
	return nil
}

func (c *corpus) teardown() {
	if c.last != nil {
		c.last.close()
		c.last = nil
	}
	c.ner, c.web = nil, nil
}

func (c *corpus) streamHash() string {
	var h streamHash
	for _, spec := range c.specs {
		for i := 0; i < spec.Reports; i++ {
			t := c.web.GenerateTruth(spec, i)
			h.add(spec.Slug, t.Title)
		}
	}
	return h.String()
}

// ingestRound is one round's leader, follower and what it measured.
type ingestRound struct {
	ldb, fdb *storage.DB
	ldir     string
	leader   *httptest.Server
	repl     *replication.Replicator
	cancel   context.CancelFunc
	replDone chan error

	wall     time.Duration
	crawl    crawler.Stats
	proc     pipeline.Stats
	inPipe   latencies // ported -> connected, per report
	lagMax   int64
	seams    *pipeSeams
	problems []string
}

func (r *ingestRound) close() {
	r.cancel()
	<-r.replDone
	r.leader.Close()
	r.fdb.Close()
	r.ldb.Close()
}

// durableOpts is how every durable store in the benchmark is opened.
func durableOpts(compactBytes int64) storage.Options {
	return storage.Options{Sync: storage.SyncInterval, CompactBytes: compactBytes, Codec: storage.CodecBinary}
}

// openPair opens a durable leader in ldir, serves its replication
// endpoints (and whatever mount adds, if non-nil) over loopback, and
// starts a follower in fdir that bootstraps from it and tails it.
func openPair(ldir, fdir string, compactBytes int64, mount func(mux *http.ServeMux, ldb *storage.DB)) (*ingestRound, error) {
	ldb, err := storage.Open(ldir, durableOpts(compactBytes))
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	(&replication.Leader{DB: ldb, HeartbeatEvery: 10 * time.Millisecond}).Register(mux)
	if mount != nil {
		mount(mux, ldb)
	}
	leader := httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	fail := func(err error) (*ingestRound, error) {
		cancel()
		leader.Close()
		ldb.Close()
		return nil, err
	}
	if err := replication.Bootstrap(ctx, fdir, leader.URL, nil, nil); err != nil {
		return fail(err)
	}
	fdb, err := storage.Open(fdir, durableOpts(-1))
	if err != nil {
		return fail(err)
	}
	r := &ingestRound{ldb: ldb, fdb: fdb, ldir: ldir, leader: leader, cancel: cancel, replDone: make(chan error, 1)}
	r.repl = replication.NewReplicator(fdb, leader.URL)
	go func() { r.replDone <- r.repl.Run(ctx) }()
	return r, nil
}

// saveHash is the SHA-256 of a store's Save stream: two stores with the
// same hash hold byte-identical logical state.
func saveHash(st *graph.Store) (string, error) {
	h := sha256.New()
	if err := st.Save(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func (c *corpus) round(tr *tracer) (*ingestRound, error) {
	c.rounds++
	base := filepath.Join(c.dir, fmt.Sprintf("round-%d", c.rounds))
	r, err := openPair(filepath.Join(base, "leader"), filepath.Join(base, "follower"), -1, nil)
	if err != nil {
		return nil, err
	}
	index := search.NewIndex(map[string]float64{"title": 2.0})
	seams := newPipeSeams(tr)
	r.seams = seams

	var checkers []pipeline.Checker
	for _, ch := range []pipeline.Checker{pipeline.NonemptyChecker{}, pipeline.NotAdsChecker{}} {
		checkers = append(checkers, seams.checker(ch))
	}
	parsers := pipeline.DefaultParsers(c.specs)
	for slug, p := range parsers {
		parsers[slug] = seams.parser(p)
	}
	p := &pipeline.Pipeline{
		Porter:   seams.porter(pipeline.NewGroupingPorter()),
		Checkers: checkers,
		Parsers:  parsers,
		Extractors: []pipeline.Extractor{
			seams.extractor(pipeline.EntityExtractor{NER: c.ner}),
			seams.extractor(pipeline.RelationExtractor{NER: c.ner}),
		},
		Connectors: []connector.Connector{seams.connector(connector.NewGraphConnector(r.ldb.Store(), index))},
		Cfg: pipeline.Config{
			PortWorkers: c.cfg.Pipeline.PortWorkers, CheckWorkers: c.cfg.Pipeline.CheckWorkers,
			ParseWorkers: c.cfg.Pipeline.ParseWorkers, ExtractWorkers: c.cfg.Pipeline.ExtractWorkers,
			ConnectWorkers: c.cfg.Pipeline.ConnectWorkers, Serialize: c.cfg.Pipeline.Serialize,
		},
	}
	frame := crawler.New(seams.fetcher(c.web), c.specs, crawler.Config{
		Workers: c.cfg.Crawler.Workers, MaxRetries: c.cfg.Crawler.MaxRetries,
	})

	// Sample the follower's lag while the round runs.
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	lagWG.Add(1)
	go func() {
		defer lagWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				if lag := int64(r.ldb.LastSeq()) - int64(r.repl.AppliedSeq()); lag > r.lagMax {
					r.lagMax = lag
				}
			}
		}
	}()

	ctx := context.Background()
	start := time.Now()
	files := make(chan ctirep.RawFile, 256) // as securitykg.Collect sizes it
	pdone := make(chan error, 1)
	go func() {
		var perr error
		r.proc, perr = p.Run(ctx, files)
		pdone <- perr
	}()
	crawlErr := frame.RunOnce(ctx, func(rf ctirep.RawFile) { files <- rf })
	close(files)
	perr := <-pdone
	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	werr := r.repl.WaitApplied(wctx, r.ldb.LastSeq())
	wcancel()
	r.wall = time.Since(start)
	close(stopLag)
	lagWG.Wait()
	r.crawl = frame.Stats()
	r.inPipe = seams.inPipe()
	for _, err := range []error{crawlErr, perr, werr} {
		if err != nil {
			r.close()
			return nil, err
		}
	}

	// Every report collected is either rejected by a checker or ends up
	// connected, and the follower holds what the leader holds.
	if want := r.proc.Ported - r.proc.Rejected - r.proc.ParseErrs; r.proc.Connected != want || r.proc.ConnectErrs != 0 || want == 0 {
		r.problems = append(r.problems, fmt.Sprintf("round %d: connected %d, want ported-rejected-parse_errs = %d (connect errors %d)",
			c.rounds, r.proc.Connected, want, r.proc.ConnectErrs))
	}
	lh, lerr := saveHash(r.ldb.Store())
	fh, ferr := saveHash(r.fdb.Store())
	if lerr != nil || ferr != nil || lh != fh {
		r.problems = append(r.problems, fmt.Sprintf("round %d: follower state differs from leader (%v %v)", c.rounds, lerr, ferr))
	}
	return r, nil
}

func (c *corpus) drive(dur time.Duration, tr *tracer) (*driveStats, error) {
	out := newDriveStats()
	out.headline = &latencies{}
	start := time.Now()
	before := scrape()
	var roundWall time.Duration
	var perS, wal []float64
	for len(perS) == 0 || time.Since(start)+c.lastWall() < dur {
		if c.last != nil {
			c.last.close()
			c.last = nil
		}
		r, err := c.round(tr)
		if err != nil {
			return nil, err
		}
		c.last = r
		roundWall += r.wall
		perS = append(perS, float64(r.proc.Connected)/r.wall.Seconds())
		wal = append(wal, float64(r.ldb.WALSize())/float64(max(r.proc.Connected, 1)))
		out.headline.ns = append(out.headline.ns, r.inPipe.ns...)
		out.attempted += r.proc.Ported
		out.failed += r.proc.ConnectErrs + r.proc.ParseErrs
		out.errs = append(out.errs, r.problems...)
		if len(r.problems) > 0 {
			out.failed++
		}
	}
	out.wall = time.Since(start)
	out.throughput = median(perS)
	if tr != nil {
		c.tracedRounds, c.tracedWall, c.tracedDelta = len(perS), roundWall, map[string]float64{}
		for k, v := range scrape() {
			c.tracedDelta[k] = v - before[k]
		}
	}
	out.extra["e2e.wal_bytes_per_report"] = median(wal)
	return out, nil
}

func (c *corpus) lastWall() time.Duration {
	if c.last == nil {
		return 0
	}
	return c.last.wall
}

func (c *corpus) check() []string {
	if c.last == nil {
		return []string{"no round ran"}
	}
	var bad []string
	for name, st := range map[string]*graph.Store{"leader": c.last.ldb.Store(), "follower": c.last.fdb.Store()} {
		if mv := st.MVCCStats(); mv != (graph.MVCCStats{}) {
			bad = append(bad, fmt.Sprintf("%s MVCC state not purged: %+v", name, mv))
		}
	}
	return bad
}
