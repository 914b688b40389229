package pipeline

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"securitykg/internal/connector"
	"securitykg/internal/ctirep"
)

// Config sets per-stage worker counts and the hand-off mode.
type Config struct {
	PortWorkers    int // ignored: Run ports on one goroutine (grouping state is shared)
	CheckWorkers   int // checker stage (default 2)
	ParseWorkers   int // parser stage (default 2)
	ExtractWorkers int // extractor stage (default 4; NLP is the bottleneck)
	ConnectWorkers int // connector stage (default 2)
	// Serialize encodes/decodes the intermediate representations between
	// stages, exactly as a multi-host deployment would: each report
	// round-trips through JSON three times (after porting, parsing and
	// extraction). It is off by default, in config.Default too: stages in
	// one process hand reports over as Go values, and
	// TestSerializationToggleEquivalence proves the hand-off loses nothing
	// the round trip keeps. It stays as E3's knob, which measures what the
	// round trips cost.
	Serialize bool
	// Logger receives per-report errors; nil silences them.
	Logger *log.Logger
}

func (c *Config) defaults() {
	if c.CheckWorkers <= 0 {
		c.CheckWorkers = 2
	}
	if c.ParseWorkers <= 0 {
		c.ParseWorkers = 2
	}
	if c.ExtractWorkers <= 0 {
		c.ExtractWorkers = 4
	}
	if c.ConnectWorkers <= 0 {
		c.ConnectWorkers = 2
	}
}

// queueDepth is the channel buffer between stages: room for a burst of
// reports, so a stage goes on working while the next one is busy for a
// moment, with the reports held between two stages still bounded.
const queueDepth = 64

// Stats aggregates pipeline counters for one run.
type Stats struct {
	Ported      int64
	Rejected    int64 // dropped by checkers
	Parsed      int64
	ParseErrs   int64
	Extracted   int64
	ExtractErrs int64 // extracted but lost re-encoding for the connector stage
	Connected   int64
	ConnectErrs int64
	Panics      int64 // reports a stage panicked on
	Elapsed     time.Duration
}

// ReportsPerMinute is the end-to-end processing throughput.
func (s Stats) ReportsPerMinute() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Connected) / s.Elapsed.Minutes()
}

// Pipeline wires the processing stages. Parsers are selected per source
// slug; every checker must pass; extractors run in order; every connector
// receives every rep.
type Pipeline struct {
	Porter     Porter
	Checkers   []Checker
	Parsers    map[string]Parser // source slug -> parser
	Extractors []Extractor
	Connectors []connector.Connector
	Cfg        Config

	// encodeCTI stands in for ctirep.EncodeCTIRep in tests of encoding
	// failures, which no CTIRep a parser or extractor builds provokes.
	encodeCTI func(*ctirep.CTIRep) ([]byte, error)

	ported      atomic.Int64
	rejected    atomic.Int64
	parsed      atomic.Int64
	parseErrs   atomic.Int64
	extracted   atomic.Int64
	extractErrs atomic.Int64
	connected   atomic.Int64
	connectErrs atomic.Int64
	panics      atomic.Int64
}

// Stats snapshots the counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Ported:      p.ported.Load(),
		Rejected:    p.rejected.Load(),
		Parsed:      p.parsed.Load(),
		ParseErrs:   p.parseErrs.Load(),
		Extracted:   p.extracted.Load(),
		ExtractErrs: p.extractErrs.Load(),
		Connected:   p.connected.Load(),
		ConnectErrs: p.connectErrs.Load(),
		Panics:      p.panics.Load(),
	}
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.Cfg.Logger != nil {
		p.Cfg.Logger.Printf(format, args...)
	}
}

// Run drains the raw-file channel through all stages and returns the run's
// stats once every stage has finished.
func (p *Pipeline) Run(ctx context.Context, files <-chan ctirep.RawFile) (Stats, error) {
	p.Cfg.defaults()
	if p.Porter == nil {
		p.Porter = NewGroupingPorter()
	}
	start := time.Now()

	// Stage 1: porter. Grouping state is shared, so porting runs on one
	// goroutine regardless of PortWorkers; porting is cheap.
	repCh := make(chan *ctirep.ReportRep, queueDepth)
	ported := make(chan struct{})
	go func() {
		defer close(ported)
		defer close(repCh)
		emit := func(rep *ctirep.ReportRep) bool {
			rep2, err := p.reserializeRep(rep)
			if err != nil {
				p.logf("pipeline: serialize rep %s: %v", rep.ID, err)
				return true
			}
			p.ported.Add(1)
			select {
			case repCh <- rep2:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for f := range files {
			for _, rep := range p.Porter.Port(f) {
				if !emit(rep) {
					return
				}
			}
			if ctx.Err() != nil {
				return
			}
		}
		for _, rep := range p.Porter.Flush() {
			if !emit(rep) {
				return
			}
		}
	}()

	repURL := func(rep *ctirep.ReportRep) string { return rep.URL }
	ctiURL := func(cti *ctirep.CTIRep) string { return cti.URL }
	checkedCh := stage(ctx, p, "check", p.Cfg.CheckWorkers, repCh, repURL, p.check)
	ctiCh := stage(ctx, p, "parse", p.Cfg.ParseWorkers, checkedCh, repURL, p.parse)
	extractedCh := stage(ctx, p, "extract", p.Cfg.ExtractWorkers, ctiCh, ctiURL, p.extract)
	connected := stage(ctx, p, "connect", p.Cfg.ConnectWorkers, extractedCh, ctiURL, p.connect)

	<-ported
	<-connected
	st := p.Stats()
	st.Elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("pipeline: cancelled: %w", err)
	}
	return st, nil
}

// stage starts n workers that call step on each item from in and hand on
// the items it keeps, and returns the channel they hand on to, closed when
// the last worker stops: when in is closed, or when ctx is done while a
// worker waits to hand on. A panic in step fails its item alone: it is
// counted and logged with the stage's name and the item's URL.
func stage[In, Out any](ctx context.Context, p *Pipeline, name string, n int, in <-chan In,
	url func(In) string, step func(In) (Out, bool)) <-chan Out {
	contained := func(x In) (y Out, keep bool) {
		defer func() {
			if r := recover(); r != nil {
				p.panics.Add(1)
				p.logf("pipeline: %s %s: panic: %v", name, url(x), r)
			}
		}()
		return step(x)
	}
	out := make(chan Out, queueDepth)
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for x := range in {
				y, keep := contained(x)
				if !keep {
					continue
				}
				select {
				case out <- y:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(out) }()
	return out
}

// check passes the rep on when every checker does.
func (p *Pipeline) check(rep *ctirep.ReportRep) (*ctirep.ReportRep, bool) {
	for _, ch := range p.Checkers {
		if !ch.Check(rep) {
			p.rejected.Add(1)
			return nil, false
		}
	}
	return rep, true
}

// parse runs the rep's source-dependent parser.
func (p *Pipeline) parse(rep *ctirep.ReportRep) (*ctirep.CTIRep, bool) {
	parser, ok := p.Parsers[rep.Source]
	if !ok {
		p.parseErrs.Add(1)
		p.logf("pipeline: no parser for source %q", rep.Source)
		return nil, false
	}
	cti, err := parser.Parse(rep)
	if err != nil {
		p.parseErrs.Add(1)
		p.logf("pipeline: parse %s: %v", rep.URL, err)
		return nil, false
	}
	cti, err = p.reserializeCTI(cti)
	if err != nil {
		p.parseErrs.Add(1)
		return nil, false
	}
	p.parsed.Add(1)
	return cti, true
}

// extract runs the source-independent extractors in order.
func (p *Pipeline) extract(cti *ctirep.CTIRep) (*ctirep.CTIRep, bool) {
	for _, ex := range p.Extractors {
		if err := ex.Extract(cti); err != nil {
			p.logf("pipeline: extract %s (%s): %v", cti.ReportID, ex.Name(), err)
		}
	}
	// An analysis nobody took ends with the stage.
	cti.TakeAnalysis()
	cti2, err := p.reserializeCTI(cti)
	if err != nil {
		p.extractErrs.Add(1)
		p.logf("pipeline: serialize extracted %s: %v", cti.ReportID, err)
		return nil, false
	}
	p.extracted.Add(1)
	return cti2, true
}

// connect hands the rep to every connector. It is the last stage, so it
// keeps nothing.
func (p *Pipeline) connect(cti *ctirep.CTIRep) (struct{}, bool) {
	failed := false
	for _, conn := range p.Connectors {
		if err := conn.Connect(cti); err != nil {
			failed = true
			p.connectErrs.Add(1)
			p.logf("pipeline: connect %s (%s): %v", cti.ReportID, conn.Name(), err)
		}
	}
	if !failed {
		p.connected.Add(1)
	}
	return struct{}{}, false
}

// reserializeRep round-trips the report rep through its wire format when
// Serialize is on, as a hand-off between hosts would.
func (p *Pipeline) reserializeRep(rep *ctirep.ReportRep) (*ctirep.ReportRep, error) {
	if !p.Cfg.Serialize {
		return rep, nil
	}
	b, err := ctirep.EncodeReportRep(rep)
	if err != nil {
		return nil, err
	}
	return ctirep.DecodeReportRep(b)
}

func (p *Pipeline) reserializeCTI(cti *ctirep.CTIRep) (*ctirep.CTIRep, error) {
	if !p.Cfg.Serialize {
		return cti, nil
	}
	encode := ctirep.EncodeCTIRep
	if p.encodeCTI != nil {
		encode = p.encodeCTI
	}
	b, err := encode(cti)
	if err != nil {
		return nil, err
	}
	return ctirep.DecodeCTIRep(b)
}
