// Package connector implements the storage stage of the pipeline: each
// connector refactors intermediate CTI representations into the security
// knowledge ontology and merges them into one backend. Connectors are
// swappable per the paper's extensibility goal: the default graph
// connector (Neo4j's role), a relational connector, and a log connector
// all share one interface.
package connector

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"securitykg/internal/ctirep"
	"securitykg/internal/graph"
	"securitykg/internal/ontology"
	"securitykg/internal/relstore"
	"securitykg/internal/search"
)

// Connector merges one CTI representation into a storage backend.
type Connector interface {
	Name() string
	Connect(c *ctirep.CTIRep) error
}

// --- graph connector ---

// GraphConnector writes to the embedded property graph and, optionally,
// a full-text index over report title/body (the Elasticsearch role).
type GraphConnector struct {
	store *graph.Store
	index *search.Index // may be nil

	// write stands in for connectTx in tests of a report whose writes
	// panic, which no CTIRep provokes.
	write func(*graph.Tx, *ctirep.CTIRep) error
}

// NewGraphConnector builds the default connector. index may be nil.
func NewGraphConnector(store *graph.Store, index *search.Index) *GraphConnector {
	return &GraphConnector{store: store, index: index}
}

// Name implements Connector.
func (g *GraphConnector) Name() string { return "graph" }

// Connect refactors the CTI rep into ontology form: a report node, a
// REPORTED_BY edge to the vendor, MENTIONS edges to every entity,
// DESCRIBES edges to threat concepts, and the extracted relations.
// Storage-time merging is exact (type, name) per Section 2.5.
//
// A report is one commit group: its merges and edges run in one
// transaction, so they reach the log as one group (one write, one
// shipped unit, one transaction on a follower), and readers and recovery
// see the whole report or none of it. Any error rolls the report back.
// The full-text index is updated after the commit, so a search hit
// always names a report the graph holds.
func (g *GraphConnector) Connect(c *ctirep.CTIRep) error {
	tx := g.store.BeginTx()
	// After Commit this is a no-op (ErrTxDone); on an error or a panic in
	// connectTx it releases the writer lock the report's writes took.
	defer tx.Rollback()
	write := connectTx
	if g.write != nil {
		write = g.write
	}
	if err := write(tx, c); err != nil {
		return fmt.Errorf("connector: graph: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("connector: graph: %w", err)
	}
	if g.index != nil {
		g.index.Add(search.Document{
			ID: c.ReportID,
			Fields: map[string]string{
				"title": c.Title,
				"body":  c.Text,
			},
		})
	}
	return nil
}

// RebuildIndex builds a keyword index over the report nodes already in
// store, one document per report under its report_id as Connect indexes
// it. Report bodies are not in the graph, so only titles are indexed.
// It serves a store recovered from disk, which no Connect call filled.
func RebuildIndex(store *graph.Store) *search.Index {
	idx := search.NewIndex(map[string]float64{"title": 2.0})
	sn := store.Snapshot()
	defer sn.Release()
	sn.ForEachNode(func(n *graph.Node) bool {
		if strings.HasSuffix(n.Type, "Report") {
			id := n.Attrs.Get("report_id")
			if id == "" { // a report created through Cypher has none
				id = fmt.Sprint(n.ID)
			}
			idx.Add(search.Document{ID: id, Fields: map[string]string{"title": n.Name}})
		}
		return true
	})
	return idx
}

// connectTx writes the report's nodes and edges through tx. A report's
// strings are substrings of its fetched page and its protected text, so
// every name and attribute value the graph may keep is a copy: a node must
// not keep a whole page alive.
func connectTx(tx *graph.Tx, c *ctirep.CTIRep) error {
	reportID := strings.Clone(c.ReportID)
	repEnt := c.ReportEntity()
	repID := tx.MergeNode(string(repEnt.Type), strings.Clone(repEnt.Name), cloneValues(nil, repEnt.Attrs)).Node.ID

	if c.Vendor != "" {
		vID := tx.MergeNode(string(ontology.TypeCTIVendor), strings.Clone(c.Vendor), nil).Node.ID
		if _, err := tx.AddEdge(repID, string(ontology.RelReportedBy), vID,
			map[string]string{"report_id": reportID}); err != nil {
			return err
		}
	}
	for _, e := range c.Entities {
		if err := e.Validate(); err != nil {
			continue // skip malformed extractions, never poison the graph
		}
		attrs := cloneValues(map[string]string{"first_report": reportID}, e.Attrs)
		eID := tx.MergeNode(string(e.Type), strings.Clone(e.Name), attrs).Node.ID
		rel := ontology.RelMentions
		if ontology.IsThreatConcept(e.Type) {
			rel = ontology.RelDescribes
		}
		if _, err := tx.AddEdge(repID, string(rel), eID,
			map[string]string{"report_id": reportID}); err != nil {
			return err
		}
	}
	for _, r := range c.Relations {
		if err := r.Validate(); err != nil {
			continue
		}
		sID := tx.MergeNode(string(r.Src.Type), strings.Clone(r.Src.Name), nil).Node.ID
		dID := tx.MergeNode(string(r.Dst.Type), strings.Clone(r.Dst.Name), nil).Node.ID
		attrs := cloneValues(map[string]string{"report_id": reportID}, r.Attrs)
		if _, err := tx.AddEdge(sID, string(r.Type), dID, attrs); err != nil {
			return err
		}
	}
	return nil
}

// cloneValues adds src to dst (a new map when dst is nil) with every value
// copied, and returns dst.
func cloneValues(dst, src map[string]string) map[string]string {
	if dst == nil {
		dst = make(map[string]string, len(src))
	}
	for k, v := range src {
		dst[k] = strings.Clone(v)
	}
	return dst
}

// --- log connector ---

// LogConnector appends each CTI rep as one JSON line, useful for audit
// trails and for feeding external systems.
type LogConnector struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
}

// NewLogConnector writes JSON lines to w.
func NewLogConnector(w io.Writer) *LogConnector {
	return &LogConnector{w: w, enc: json.NewEncoder(w)}
}

// Name implements Connector.
func (l *LogConnector) Name() string { return "log" }

// Connect implements Connector.
func (l *LogConnector) Connect(c *ctirep.CTIRep) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.enc.Encode(c); err != nil {
		return fmt.Errorf("connector: log: %w", err)
	}
	return nil
}

// --- relational connector ---

// RelConnector flattens the knowledge into relational tables: reports,
// entities, mentions, and relations.
type RelConnector struct {
	store *relstore.Store
	mu    sync.Mutex
	seq   int
}

// Relational schema created by NewRelConnector.
const (
	TableReports   = "reports"
	TableEntities  = "entities"
	TableMentions  = "mentions"
	TableRelations = "relations"
)

// NewRelConnector creates the schema in the store (idempotent only on a
// fresh store) and returns the connector.
func NewRelConnector(store *relstore.Store) (*RelConnector, error) {
	mk := func(name string, cols ...string) error {
		err := store.CreateTable(name, cols...)
		if err != nil {
			return err
		}
		return nil
	}
	if err := mk(TableReports, "report_id", "title", "vendor", "kind", "source", "url", "published_at"); err != nil {
		return nil, err
	}
	if err := mk(TableEntities, "type", "name"); err != nil {
		return nil, err
	}
	if err := mk(TableMentions, "report_id", "type", "name"); err != nil {
		return nil, err
	}
	if err := mk(TableRelations, "src_type", "src_name", "rel", "dst_type", "dst_name", "report_id"); err != nil {
		return nil, err
	}
	if err := store.CreateIndex(TableEntities, "name"); err != nil {
		return nil, err
	}
	if err := store.CreateIndex(TableMentions, "report_id"); err != nil {
		return nil, err
	}
	return &RelConnector{store: store}, nil
}

// Name implements Connector.
func (r *RelConnector) Name() string { return "relational" }

// Connect implements Connector.
func (r *RelConnector) Connect(c *ctirep.CTIRep) error {
	if err := r.store.Insert(TableReports, relstore.Row{
		"report_id": c.ReportID, "title": c.Title, "vendor": c.Vendor,
		"kind": c.Kind, "source": c.Source, "url": c.URL,
		"published_at": c.PublishedAt,
	}); err != nil {
		return fmt.Errorf("connector: relational: %w", err)
	}
	for _, e := range c.Entities {
		if e.Validate() != nil {
			continue
		}
		// Entity table dedup: insert only when absent.
		rows, err := r.store.Select(TableEntities, relstore.Row{"name": e.Name})
		if err != nil {
			return fmt.Errorf("connector: relational: %w", err)
		}
		exists := false
		for _, row := range rows {
			if row["type"] == string(e.Type) {
				exists = true
			}
		}
		if !exists {
			if err := r.store.Insert(TableEntities, relstore.Row{
				"type": string(e.Type), "name": e.Name,
			}); err != nil {
				return fmt.Errorf("connector: relational: %w", err)
			}
		}
		if err := r.store.Insert(TableMentions, relstore.Row{
			"report_id": c.ReportID, "type": string(e.Type), "name": e.Name,
		}); err != nil {
			return fmt.Errorf("connector: relational: %w", err)
		}
	}
	for _, rel := range c.Relations {
		if rel.Validate() != nil {
			continue
		}
		if err := r.store.Insert(TableRelations, relstore.Row{
			"src_type": string(rel.Src.Type), "src_name": rel.Src.Name,
			"rel":      string(rel.Type),
			"dst_type": string(rel.Dst.Type), "dst_name": rel.Dst.Name,
			"report_id": c.ReportID,
		}); err != nil {
			return fmt.Errorf("connector: relational: %w", err)
		}
	}
	r.mu.Lock()
	r.seq++
	r.mu.Unlock()
	return nil
}

// Connected returns how many reps this connector has stored.
func (r *RelConnector) Connected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
