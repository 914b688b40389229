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

	repCh := make(chan *ctirep.ReportRep, queueDepth)
	checkedCh := make(chan *ctirep.ReportRep, queueDepth)
	ctiCh := make(chan *ctirep.CTIRep, queueDepth)
	extractedCh := make(chan *ctirep.CTIRep, queueDepth)

	var wgPort, wgCheck, wgParse, wgExtract, wgConnect sync.WaitGroup

	// Stage 1: porter. Grouping state is shared, so porting runs on one
	// goroutine regardless of PortWorkers; porting is cheap.
	wgPort.Add(1)
	go func() {
		defer wgPort.Done()
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
			reps := p.Porter.Port(f)
			for _, rep := range reps {
				if !emit(rep) {
					return
				}
			}
			if ctx.Err() != nil {
				return
			}
		}
		reps := p.Porter.Flush()
		for _, rep := range reps {
			if !emit(rep) {
				return
			}
		}
	}()

	// Stage 2: checkers.
	for i := 0; i < p.Cfg.CheckWorkers; i++ {
		wgCheck.Add(1)
		go func() {
			defer wgCheck.Done()
			for rep := range repCh {
				ok := true
				for _, ch := range p.Checkers {
					if !ch.Check(rep) {
						ok = false
						p.rejected.Add(1)
						break
					}
				}
				if !ok {
					continue
				}
				select {
				case checkedCh <- rep:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wgCheck.Wait(); close(checkedCh) }()

	// Stage 3: source-dependent parsers.
	for i := 0; i < p.Cfg.ParseWorkers; i++ {
		wgParse.Add(1)
		go func() {
			defer wgParse.Done()
			for rep := range checkedCh {
				parser, ok := p.Parsers[rep.Source]
				if !ok {
					p.parseErrs.Add(1)
					p.logf("pipeline: no parser for source %q", rep.Source)
					continue
				}
				cti, err := parser.Parse(rep)
				if err != nil {
					p.parseErrs.Add(1)
					p.logf("pipeline: parse %s: %v", rep.URL, err)
					continue
				}
				cti2, err := p.reserializeCTI(cti)
				if err != nil {
					p.parseErrs.Add(1)
					continue
				}
				p.parsed.Add(1)
				select {
				case ctiCh <- cti2:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wgParse.Wait(); close(ctiCh) }()

	// Stage 4: source-independent extractors.
	for i := 0; i < p.Cfg.ExtractWorkers; i++ {
		wgExtract.Add(1)
		go func() {
			defer wgExtract.Done()
			for cti := range ctiCh {
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
					continue
				}
				p.extracted.Add(1)
				select {
				case extractedCh <- cti2:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wgExtract.Wait(); close(extractedCh) }()

	// Stage 5: connectors.
	for i := 0; i < p.Cfg.ConnectWorkers; i++ {
		wgConnect.Add(1)
		go func() {
			defer wgConnect.Done()
			for cti := range extractedCh {
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
			}
		}()
	}

	wgPort.Wait()
	wgConnect.Wait()
	st := p.Stats()
	st.Elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("pipeline: cancelled: %w", err)
	}
	return st, nil
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
