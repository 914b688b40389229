package config

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.ReportsPerSource <= 0 || c.NER.Strategy != "labelmodel" {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestParseOverridesDefaults(t *testing.T) {
	c, err := Parse([]byte(`{
		"seed": 7,
		"reports_per_source": 5,
		"sources": ["acme-encyclopedia"],
		"pipeline": {"extract_workers": 8, "serialize": false},
		"ner": {"strategy": "majority", "epochs": 2, "train_docs": 30},
		"connectors": ["graph", "log"],
		"fusion": {"enabled": false}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 7 || c.ReportsPerSource != 5 {
		t.Errorf("scalar overrides: %+v", c)
	}
	if c.Pipeline.ExtractWorkers != 8 || c.Pipeline.Serialize {
		t.Errorf("pipeline overrides: %+v", c.Pipeline)
	}
	if c.NER.Strategy != "majority" || c.NER.Epochs != 2 {
		t.Errorf("ner overrides: %+v", c.NER)
	}
	if len(c.Connectors) != 2 {
		t.Errorf("connectors: %v", c.Connectors)
	}
	if c.Fusion.Enabled {
		t.Error("fusion should be disabled")
	}
	// Untouched defaults survive.
	if c.Crawler.Workers != 8 {
		t.Errorf("crawler default lost: %+v", c.Crawler)
	}
}

func TestParseRejectsBadValues(t *testing.T) {
	bad := []string{
		`{not json`,
		`{"reports_per_source": -1}`,
		`{"ner": {"strategy": "quantum"}}`,
		`{"checkers": ["nonexistent"]}`,
		`{"connectors": ["mongodb"]}`,
		`{"graph_path": "kg.jsonl"}`,
		`{"log_path": "x"}`,
		`{"reports_per_sorce": 5}`,
		`{"seed": 1} {"seed": 2}`,
	}
	for _, b := range bad {
		if _, err := Parse([]byte(b)); err == nil {
			t.Errorf("accepted bad config: %s", b)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, []byte(`{"seed": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 99 {
		t.Errorf("seed: %d", c.Seed)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
