package securitykg

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"securitykg/internal/config"
	"securitykg/internal/graph"
	"securitykg/internal/storage"
)

// one shared small system per test binary: its first Collect trains a CRF,
// which is the slow part.
var (
	sysOnce  sync.Once
	sysVal   *System
	sysErr   error
	sysStats CollectStats
)

func sharedSystem(t *testing.T) (*System, CollectStats) {
	t.Helper()
	sysOnce.Do(func() {
		cfg := config.Default()
		cfg.ReportsPerSource = 6
		cfg.NER.TrainDocs = 60
		cfg.NER.Epochs = 4
		cfg.Connectors = []string{"graph", "relational"}
		sysVal, sysErr = New(Options{Config: &cfg})
		if sysErr != nil {
			return
		}
		sysStats, sysErr = sysVal.Collect(context.Background())
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal, sysStats
}

func TestSystemCollectEndToEnd(t *testing.T) {
	sys, st := sharedSystem(t)
	want := int64(len(sys.Sources()) * 6)
	if st.Process.Connected != want {
		t.Fatalf("connected %d reports, want %d", st.Process.Connected, want)
	}
	gs := sys.Store.Stats()
	if gs.Nodes < 500 {
		t.Errorf("graph too small after full collect: %+v", gs)
	}
	if sys.Index.Len() != int(want) {
		t.Errorf("search index has %d docs, want %d", sys.Index.Len(), want)
	}
	if sys.RelStore == nil {
		t.Fatal("relational connector not wired")
	}
	if n, _ := sys.RelStore.Count("reports"); n != int(want) {
		t.Errorf("relational reports: %d", n)
	}
}

func TestSystemSearchFindsReports(t *testing.T) {
	sys, _ := sharedSystem(t)
	// Search for a term every report contains.
	hits, err := sys.Search("campaign", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits for common term")
	}
	for _, h := range hits {
		if h.Title == "" || h.Kind == "" {
			t.Errorf("hit not resolved to report node: %+v", h)
		}
	}
}

func TestSystemCypherDemoQuery(t *testing.T) {
	sys, _ := sharedSystem(t)
	// Find any malware node, then run the paper's demo-style point query.
	res, err := sys.Engine().Query(`match (n:Malware) return n.name limit 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("no malware nodes in KG")
	}
	name := res.Rows[0][0].Str
	res2, err := sys.Engine().Query(`match (n) where n.name = "`+name+`" return n.type`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) == 0 {
		t.Errorf("point query found nothing for %q", name)
	}
}

func TestSystemFuseReducesAliases(t *testing.T) {
	sys, _ := sharedSystem(t)
	before := sys.Store.Stats().Nodes
	fstats, err := sys.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	after := sys.Store.Stats().Nodes
	if fstats.NodesMerged > 0 && after >= before {
		t.Errorf("fusion merged %d but node count went %d -> %d",
			fstats.NodesMerged, before, after)
	}
	// Idempotent second pass.
	f2, err := sys.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if f2.NodesMerged != 0 {
		t.Errorf("second fusion merged again: %+v", f2)
	}
}

// durableSystem builds a small System and writes its graph into dir the
// way `skg -out dir` does: ingest into the opened store, then checkpoint.
// The caller owns the returned DB.
func durableSystem(t *testing.T, dir string) (*System, *storage.DB) {
	t.Helper()
	cfg := config.Default()
	cfg.ReportsPerSource = 3
	cfg.NER.TrainDocs = 40
	cfg.NER.Epochs = 3
	sys, err := New(Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	db, st, err := sys.OpenDataDir(context.Background(), dir, storage.Options{Sync: storage.SyncNever}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Process.Connected == 0 {
		db.Close()
		t.Fatalf("empty data directory was not ingested into: %+v", st)
	}
	return sys, db
}

// findNode reads the committed state through a snapshot held only for the
// read.
func findNode(s *graph.Store, typ, name string) *graph.Node {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.FindNode(typ, name)
}

func saveHash(t *testing.T, st *graph.Store) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestSystemDataDirRoundTrip: the data directory skg's path writes
// reopens to the same bytes, and reopening it through OpenDataDir
// recovers the graph and its search index instead of ingesting again.
func TestSystemDataDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, db := durableSystem(t, dir)
	want := saveHash(t, sys.Store)
	// Two reports with one title merge into one report node, so the
	// rebuilt index counts report nodes, not the reports ingested.
	var reports int
	sn := sys.Store.Snapshot()
	sn.ForEachNode(func(n *graph.Node) bool {
		if strings.HasSuffix(n.Type, "Report") {
			reports++
		}
		return true
	})
	sn.Release()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := saveHash(t, db2.Store()); got != want {
		t.Fatalf("recovered store's Save hash %x, live store's %x", got, want)
	}
	if db2.Recovered.Replayed != 0 {
		t.Errorf("%d WAL records replayed; the post-ingest checkpoint should cover them all", db2.Recovered.Replayed)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, st, err := sys.OpenDataDir(context.Background(), dir, storage.Options{Sync: storage.SyncNever}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if st != nil {
		t.Fatalf("a directory holding a graph was ingested into again: %+v", st)
	}
	if got := saveHash(t, sys.Store); got != want {
		t.Fatalf("reopened store's Save hash %x, want %x", got, want)
	}
	if sys.Index.Len() != reports {
		t.Errorf("rebuilt search index holds %d reports, want the %d report nodes", sys.Index.Len(), reports)
	}
}

// TestSystemTrainsOnlyToExtract: a System trains its extractor for the
// first pipeline it runs and keeps it for the next, and a System that only
// serves a populated data directory trains nothing.
func TestSystemTrainsOnlyToExtract(t *testing.T) {
	dir := t.TempDir()
	sys, db := durableSystem(t, dir)
	ext := sys.extractor
	if ext == nil {
		t.Fatal("ingest left the extractor unbuilt")
	}
	if _, err := sys.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sys.extractor != ext {
		t.Error("a second Collect trained the extractor again")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := sys.Config()
	serving, err := New(Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	db2, st, err := serving.OpenDataDir(context.Background(), dir, storage.Options{Sync: storage.SyncNever}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st != nil {
		t.Fatalf("a directory holding a graph was ingested into again: %+v", st)
	}
	if serving.extractor != nil {
		t.Error("opening a populated data directory trained the extractor")
	}
}

// TestNewValidatesConfig: New checks the configuration it will run, after
// the per-field options override it.
func TestNewValidatesConfig(t *testing.T) {
	for name, bad := range map[string]func(*config.Config){
		"unknown connector": func(c *config.Config) { c.Connectors = []string{"mongodb"} },
		"zero epochs":       func(c *config.Config) { c.NER.Epochs = 0 },
		"negative docs":     func(c *config.Config) { c.NER.TrainDocs = -1 },
	} {
		cfg := config.Default()
		bad(&cfg)
		if _, err := New(Options{Config: &cfg}); err == nil {
			t.Errorf("%s: New accepted the configuration", name)
		}
	}
	cfg := config.Default()
	cfg.ReportsPerSource = 0
	if _, err := New(Options{Config: &cfg, ReportsPerSource: 2}); err != nil {
		t.Errorf("ReportsPerSource did not override the configuration before validation: %v", err)
	}
}

func TestSystemSourceFiltering(t *testing.T) {
	sys, err := New(Options{
		ReportsPerSource: 2,
		SourceSlugs:      []string{"acme-encyclopedia", "hack-daily"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Sources()) != 2 {
		t.Errorf("source filter: %d sources", len(sys.Sources()))
	}
	if _, err := New(Options{SourceSlugs: []string{"nope"}}); err == nil {
		t.Error("unknown source filter accepted")
	}
}

func TestSystemLogConnector(t *testing.T) {
	var buf bytes.Buffer
	cfg := config.Default()
	cfg.ReportsPerSource = 2
	cfg.Sources = []string{"acme-encyclopedia"}
	cfg.NER.TrainDocs = 10
	cfg.NER.Epochs = 1
	cfg.Connectors = []string{"log"}
	sys, err := New(Options{Config: &cfg, LogWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Errorf("log connector wrote %d lines, want 2", lines)
	}
}

func TestSystemWithEmbeddingFeatures(t *testing.T) {
	cfg := config.Default()
	cfg.ReportsPerSource = 3
	cfg.Sources = []string{"acme-encyclopedia", "kasper-blog"}
	cfg.NER.TrainDocs = 12
	cfg.NER.Epochs = 2
	cfg.NER.Embeddings = true
	sys, err := New(Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Process.Connected != 6 {
		t.Errorf("connected %d, want 6", st.Process.Connected)
	}
	if sys.Store.Stats().Nodes == 0 {
		t.Error("embedding-featured system produced empty graph")
	}
}

// TestIngestMatchesParent holds what New + Ingest store to the graph an
// earlier build stored: the SHA-256 of graph.Save for a small default
// configuration, with and without embedding-cluster features. Training is
// seeded, so the extractor, and with it every byte of the graph, must not
// depend on when the system builds it.
func TestIngestMatchesParent(t *testing.T) {
	for _, tc := range []struct {
		name       string
		embeddings bool
		want       string
	}{
		{"default", false, "86e4be018ec01a8e829137a698cdf4b8d8d6acf36d14e3361930483f2550d49a"},
		{"embeddings", true, "a12404e0365323a3d2c57b0bdfa6df9bca0acadba9d71a5af50f9f2cdc708f0c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.ReportsPerSource = 2
			cfg.NER.TrainDocs = 40
			cfg.NER.Epochs = 3
			cfg.NER.Embeddings = tc.embeddings
			// One worker per stage stores reports in crawl order, so the
			// node and edge ids, and with them the bytes, repeat.
			cfg.Crawler.Workers = 1
			cfg.Pipeline.CheckWorkers = 1
			cfg.Pipeline.ParseWorkers = 1
			cfg.Pipeline.ExtractWorkers = 1
			cfg.Pipeline.ConnectWorkers = 1
			sys, err := New(Options{Config: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Ingest(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", saveHash(t, sys.Store)); got != tc.want {
				t.Errorf("graph.Save SHA-256 %s, want %s", got, tc.want)
			}
		})
	}
}
