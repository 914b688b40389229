package ioc

import (
	"strings"
	"testing"

	"securitykg/internal/sources"
)

// BenchmarkScanSyntheticWeb scans every report of the synthetic web at
// 30 reports a source, title and paragraphs as the extract stage sees
// them; one op is the whole corpus.
func BenchmarkScanSyntheticWeb(b *testing.B) {
	specs := sources.DefaultSources(30)
	web := sources.NewWeb(1, specs)
	var texts []string
	for _, spec := range specs {
		for i := 0; i < spec.Reports; i++ {
			tr := web.GenerateTruth(spec, i)
			texts = append(texts, tr.Title+".\n"+strings.Join(tr.Paragraphs, "\n"))
		}
	}
	b.ResetTimer()
	for b.Loop() {
		for _, text := range texts {
			Scan(text)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(texts)), "µs/report")
}
