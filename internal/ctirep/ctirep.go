// Package ctirep defines the two serializable intermediate representations
// the pipeline hands between stages (Section 2.1 of the paper):
//
//   - ReportRep — the intermediate report representation produced by
//     porters from raw crawled files (grouped pages + metadata);
//   - CTIRep — the intermediate CTI representation produced by
//     source-dependent parsers and refined by source-independent
//     extractors, covering every field any data source can provide.
//
// Both marshal to JSON so pipeline steps can run in separate processes and
// pass work across the network, which is what makes the design scale out.
package ctirep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"securitykg/internal/ontology"
)

// RawFile is one fetched document exactly as the crawler stored it.
type RawFile struct {
	Source    string    `json:"source"` // source slug
	URL       string    `json:"url"`    // canonical fetch URL
	Format    string    `json:"format"` // "html" or "pdf"
	Body      []byte    `json:"body"`   // raw bytes
	FetchedAt time.Time `json:"fetched_at"`
	// Next is the URL of the report's continuation page, which the page
	// links to (a.next-page), or "" on a report's last page.
	Next string `json:"next,omitempty"`
}

// ReportRep is the intermediate report representation: a (possibly
// multi-page) report with collection metadata attached by the porter.
type ReportRep struct {
	ID        string            `json:"id"`     // stable content-derived id
	Source    string            `json:"source"` // source slug
	URL       string            `json:"url"`    // canonical URL of page 1
	Title     string            `json:"title,omitempty"`
	Format    string            `json:"format"`
	Pages     [][]byte          `json:"pages"` // raw page bodies in order
	Meta      map[string]string `json:"meta,omitempty"`
	FetchedAt time.Time         `json:"fetched_at"`

	// parsedPages is what the first stage to parse the pages made of them,
	// left for the later stages in the same process (checkers, then the
	// parser). It is not part of the wire format: a rep decoded from it
	// has none, and its pages are parsed again.
	parsedPages any
}

// SetParsedPages leaves p for later stages to read.
func (r *ReportRep) SetParsedPages(p any) { r.parsedPages = p }

// ParsedPages returns what SetParsedPages left, if anything.
func (r *ReportRep) ParsedPages() any { return r.parsedPages }

// NewID derives a stable report ID from source and canonical URL.
func NewID(source, url string) string {
	sum := sha256.Sum256([]byte(source + "\x00" + url))
	return hex.EncodeToString(sum[:12])
}

// CTIRep is the intermediate CTI representation: the unified wide schema
// every parser fills (structured fields) and every extractor refines
// (entities, relations). Connectors refactor it into ontology form.
type CTIRep struct {
	ReportID    string            `json:"report_id"`
	Source      string            `json:"source"`
	URL         string            `json:"url"`
	Title       string            `json:"title"`
	Vendor      string            `json:"vendor,omitempty"`
	Kind        string            `json:"kind"` // malware | vulnerability | attack
	PublishedAt string            `json:"published_at,omitempty"`
	Text        string            `json:"text"`             // unstructured body text
	Fields      map[string]string `json:"fields,omitempty"` // structured key-values
	// Extractor-filled slots.
	Entities  []ontology.Entity   `json:"entities,omitempty"`
	Relations []ontology.Relation `json:"relations,omitempty"`

	// analysis is what one extractor computed about this rep and leaves
	// for the next extractor on the same worker. It never crosses a stage
	// boundary: it is not part of the wire format.
	analysis any
}

// SetAnalysis leaves a for a later extractor to take.
func (c *CTIRep) SetAnalysis(a any) { c.analysis = a }

// TakeAnalysis returns what SetAnalysis left, if anything, and clears it.
func (c *CTIRep) TakeAnalysis() any {
	a := c.analysis
	c.analysis = nil
	return a
}

// ReportEntity builds the report's own ontology entity.
func (c *CTIRep) ReportEntity() ontology.Entity {
	name := c.Title
	if name == "" {
		name = c.ReportID
	}
	attrs := map[string]string{
		"report_id": c.ReportID,
		"source":    c.Source,
		"url":       c.URL,
	}
	if c.PublishedAt != "" {
		attrs["published_at"] = c.PublishedAt
	}
	return ontology.Entity{
		Type:  ontology.ReportTypeFor(c.Kind),
		Name:  name,
		Attrs: attrs,
	}
}

// --- serialization (the cross-stage wire format) ---

// EncodeReportRep marshals a ReportRep for cross-stage hand-off.
func EncodeReportRep(r *ReportRep) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("ctirep: encode report rep: %w", err)
	}
	return b, nil
}

// DecodeReportRep unmarshals a ReportRep.
func DecodeReportRep(b []byte) (*ReportRep, error) {
	var r ReportRep
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("ctirep: decode report rep: %w", err)
	}
	return &r, nil
}

// EncodeCTIRep marshals a CTIRep for cross-stage hand-off.
func EncodeCTIRep(c *CTIRep) ([]byte, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("ctirep: encode cti rep: %w", err)
	}
	return b, nil
}

// DecodeCTIRep unmarshals a CTIRep.
func DecodeCTIRep(b []byte) (*CTIRep, error) {
	var c CTIRep
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("ctirep: decode cti rep: %w", err)
	}
	return &c, nil
}
