// Package config loads the user-provided configuration file that selects
// pipeline components and their parameters (Section 2.1: "the system can
// be configured through a user-provided configuration file, which
// specifies the set of components to use and the additional parameters").
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Config is the root configuration document (JSON).
type Config struct {
	Seed             int64 `json:"seed"`
	ReportsPerSource int   `json:"reports_per_source"`
	// Sources restricts collection to the named source slugs (empty = all).
	Sources []string `json:"sources,omitempty"`

	Crawler struct {
		Workers    int `json:"workers"`
		MaxRetries int `json:"max_retries"`
	} `json:"crawler"`

	Pipeline struct {
		PortWorkers    int  `json:"port_workers"`
		CheckWorkers   int  `json:"check_workers"`
		ParseWorkers   int  `json:"parse_workers"`
		ExtractWorkers int  `json:"extract_workers"`
		ConnectWorkers int  `json:"connect_workers"`
		Serialize      bool `json:"serialize"`
	} `json:"pipeline"`

	NER struct {
		Strategy   string `json:"strategy"`   // labelmodel | majority | gazetteer
		Epochs     int    `json:"epochs"`     // CRF epochs
		TrainDocs  int    `json:"train_docs"` // corpus sample used to train
		Embeddings bool   `json:"embeddings"` // add embedding cluster features
	} `json:"ner"`

	// Checkers and Connectors select components by name (Section 2.1's
	// modular design); empty means defaults.
	Checkers   []string `json:"checkers,omitempty"`
	Connectors []string `json:"connectors,omitempty"`

	Fusion struct {
		Enabled bool     `json:"enabled"`
		Types   []string `json:"types,omitempty"`
	} `json:"fusion"`
}

// Default returns the configuration used when no file is given.
func Default() Config {
	var c Config
	c.Seed = 42
	c.ReportsPerSource = 25
	c.Crawler.Workers = 8
	c.Crawler.MaxRetries = 3
	c.Pipeline.ExtractWorkers = 4
	c.Pipeline.Serialize = true
	c.NER.Strategy = "labelmodel"
	c.NER.Epochs = 5
	c.NER.TrainDocs = 120
	c.Checkers = []string{"nonempty", "not-ads"}
	c.Connectors = []string{"graph"}
	c.Fusion.Enabled = true
	return c
}

// Load reads and validates a JSON config file, filling defaults for
// omitted fields.
func Load(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	return Parse(b)
}

// Parse decodes and validates config bytes. An unknown key is an error,
// so a misspelt or retired setting cannot be silently ignored.
func Parse(b []byte) (Config, error) {
	c := Default()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&c)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("trailing data after the config object")
	}
	if err != nil {
		return Config{}, fmt.Errorf("config: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks component names and parameter ranges.
func (c *Config) Validate() error {
	if c.ReportsPerSource <= 0 {
		return fmt.Errorf("config: reports_per_source must be positive")
	}
	switch c.NER.Strategy {
	case "", "labelmodel", "majority", "gazetteer":
	default:
		return fmt.Errorf("config: unknown ner.strategy %q", c.NER.Strategy)
	}
	for _, ch := range c.Checkers {
		switch ch {
		case "nonempty", "not-ads":
		default:
			return fmt.Errorf("config: unknown checker %q", ch)
		}
	}
	for _, cn := range c.Connectors {
		switch cn {
		case "graph", "log", "relational":
		default:
			return fmt.Errorf("config: unknown connector %q", cn)
		}
	}
	if c.NER.TrainDocs <= 0 {
		c.NER.TrainDocs = 120
	}
	return nil
}
