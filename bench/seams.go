package main

import (
	"sync"
	"time"

	"securitykg/internal/connector"
	"securitykg/internal/ctirep"
	"securitykg/internal/pipeline"
	"securitykg/internal/sources"
)

// pipeSeams decorates the interfaces the collection path is wired from:
// sources.Fetcher, pipeline.Porter / Checker / Parser / Extractor and
// connector.Connector. Untraced (tr == nil) the decorators take two
// timestamps per report — ported and connected, the client-side latency
// of a report — and forward everything else untouched. Traced they
// record one span per call, children of a per-report root span whose
// self time is the time the report spent queued between stages, and
// keep what the replays need: the parsed and the extracted
// representations.
type pipeSeams struct {
	tr *tracer

	mu        sync.Mutex
	portedAt  map[string]time.Time
	root      map[string]int // report id -> root span
	inPipeNs  []int64
	parsed    []*ctirep.CTIRep // traced only
	extracted []*ctirep.CTIRep // traced only
}

func newPipeSeams(tr *tracer) *pipeSeams {
	return &pipeSeams{tr: tr, portedAt: map[string]time.Time{}, root: map[string]int{}}
}

func (s *pipeSeams) inPipe() latencies {
	s.mu.Lock()
	defer s.mu.Unlock()
	return latencies{ns: s.inPipeNs}
}

func (s *pipeSeams) parent(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root[id]
}

// --- sources.Fetcher ---

type seamFetcher struct {
	inner sources.Fetcher
	s     *pipeSeams
}

func (s *pipeSeams) fetcher(f sources.Fetcher) sources.Fetcher {
	if s.tr == nil {
		return f
	}
	return seamFetcher{f, s}
}

func (f seamFetcher) Fetch(url string) (*sources.Page, error) {
	id := f.s.tr.begin("crawler.fetch", url, 0)
	p, err := f.inner.Fetch(url)
	f.s.tr.end(id)
	return p, err
}

// --- pipeline.Porter ---

type seamPorter struct {
	inner pipeline.Porter
	s     *pipeSeams
}

func (s *pipeSeams) porter(p pipeline.Porter) pipeline.Porter { return seamPorter{p, s} }

func (p seamPorter) emitted(reps []*ctirep.ReportRep, span int) {
	now := time.Now()
	p.s.mu.Lock()
	for _, rep := range reps {
		p.s.portedAt[rep.ID] = now
	}
	p.s.mu.Unlock()
	p.s.tr.end(span)
	if p.s.tr != nil {
		for _, rep := range reps {
			root := p.s.tr.begin("pipeline.report", rep.ID, 0)
			p.s.mu.Lock()
			p.s.root[rep.ID] = root
			p.s.mu.Unlock()
		}
	}
}

func (p seamPorter) Port(f ctirep.RawFile) []*ctirep.ReportRep {
	span := p.s.tr.begin("pipeline.port", f.URL, 0)
	reps := p.inner.Port(f)
	p.emitted(reps, span)
	return reps
}

func (p seamPorter) Flush() []*ctirep.ReportRep {
	span := p.s.tr.begin("pipeline.port", "flush", 0)
	reps := p.inner.Flush()
	p.emitted(reps, span)
	return reps
}

// --- pipeline.Checker ---

type seamChecker struct {
	pipeline.Checker
	s *pipeSeams
}

func (s *pipeSeams) checker(c pipeline.Checker) pipeline.Checker {
	if s.tr == nil {
		return c
	}
	return seamChecker{c, s}
}

func (c seamChecker) Check(r *ctirep.ReportRep) bool {
	id := c.s.tr.begin("pipeline.check", r.ID, c.s.parent(r.ID))
	ok := c.Checker.Check(r)
	c.s.tr.end(id)
	if !ok {
		c.s.tr.end(c.s.parent(r.ID)) // a rejected report's life ends here
	}
	return ok
}

// --- pipeline.Parser ---

type seamParser struct {
	pipeline.Parser
	s *pipeSeams
}

func (s *pipeSeams) parser(p pipeline.Parser) pipeline.Parser {
	if s.tr == nil {
		return p
	}
	return seamParser{p, s}
}

func (p seamParser) Parse(r *ctirep.ReportRep) (*ctirep.CTIRep, error) {
	id := p.s.tr.begin("pipeline.parse", r.ID, p.s.parent(r.ID))
	c, err := p.Parser.Parse(r)
	p.s.tr.end(id)
	if err == nil {
		cp := *c
		p.s.mu.Lock()
		p.s.parsed = append(p.s.parsed, &cp)
		p.s.mu.Unlock()
	}
	return c, err
}

// --- pipeline.Extractor ---

type seamExtractor struct {
	pipeline.Extractor
	s *pipeSeams
}

func (s *pipeSeams) extractor(e pipeline.Extractor) pipeline.Extractor {
	if s.tr == nil {
		return e
	}
	return seamExtractor{e, s}
}

func (e seamExtractor) Extract(c *ctirep.CTIRep) error {
	id := e.s.tr.begin("pipeline.extract_"+e.Name(), c.ReportID, e.s.parent(c.ReportID))
	err := e.Extractor.Extract(c)
	e.s.tr.end(id)
	return err
}

// --- connector.Connector ---

type seamConnector struct {
	connector.Connector
	s *pipeSeams
}

func (s *pipeSeams) connector(c connector.Connector) connector.Connector { return seamConnector{c, s} }

func (c seamConnector) Connect(rep *ctirep.CTIRep) error {
	parent := 0
	if c.s.tr != nil {
		parent = c.s.parent(rep.ReportID)
	}
	id := c.s.tr.begin("pipeline.connect", rep.ReportID, parent)
	err := c.Connector.Connect(rep)
	now := time.Now()
	c.s.tr.end(id)
	c.s.tr.end(parent)
	c.s.mu.Lock()
	if t0, ok := c.s.portedAt[rep.ReportID]; ok {
		c.s.inPipeNs = append(c.s.inPipeNs, int64(now.Sub(t0)))
	}
	if c.s.tr != nil {
		c.s.extracted = append(c.s.extracted, rep)
	}
	c.s.mu.Unlock()
	return err
}
