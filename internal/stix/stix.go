// Package stix exports the security knowledge graph as a STIX 2.1-style
// bundle. The paper's related work positions the ontology against STIX
// (Structured Threat Information eXpression); this exporter makes the KG
// interoperable with tooling that consumes STIX JSON: each graph node maps
// to a STIX Domain Object or Cyber-observable, each edge to a STIX
// Relationship Object.
package stix

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"securitykg/internal/graph"
	"securitykg/internal/ontology"
)

// Object is one STIX object (domain object, observable, or relationship).
type Object struct {
	Type        string            `json:"type"`
	SpecVersion string            `json:"spec_version"`
	ID          string            `json:"id"`
	Name        string            `json:"name,omitempty"`
	Value       string            `json:"value,omitempty"`
	Pattern     string            `json:"pattern,omitempty"`
	RelType     string            `json:"relationship_type,omitempty"`
	SourceRef   string            `json:"source_ref,omitempty"`
	TargetRef   string            `json:"target_ref,omitempty"`
	Labels      []string          `json:"labels,omitempty"`
	CustomProps map[string]string `json:"x_securitykg_attrs,omitempty"`
	Aliases     []string          `json:"aliases,omitempty"`
}

// Bundle is a STIX bundle document.
type Bundle struct {
	Type    string   `json:"type"`
	ID      string   `json:"id"`
	Objects []Object `json:"objects"`
}

// typeMap maps ontology entity types to STIX object types.
var typeMap = map[ontology.EntityType]string{
	ontology.TypeMalware:             "malware",
	ontology.TypeMalwareFamily:       "malware",
	ontology.TypeThreatActor:         "threat-actor",
	ontology.TypeTechnique:           "attack-pattern",
	ontology.TypeTool:                "tool",
	ontology.TypeSoftware:            "software",
	ontology.TypeMalwarePlatform:     "infrastructure",
	ontology.TypeVulnerability:       "vulnerability",
	ontology.TypeAttack:              "campaign",
	ontology.TypeCTIVendor:           "identity",
	ontology.TypeMalwareReport:       "report",
	ontology.TypeVulnerabilityReport: "report",
	ontology.TypeAttackReport:        "report",
	ontology.TypeIP:                  "ipv4-addr",
	ontology.TypeDomain:              "domain-name",
	ontology.TypeURL:                 "url",
	ontology.TypeEmail:               "email-addr",
	ontology.TypeFileName:            "file",
	ontology.TypeFilePath:            "file",
	ontology.TypeRegistry:            "windows-registry-key",
	ontology.TypeHash:                "file",
}

// relMap maps ontology relation types to STIX relationship types; unmapped
// relations export as "related-to".
var relMap = map[ontology.RelationType]string{
	ontology.RelUses:         "uses",
	ontology.RelTargets:      "targets",
	ontology.RelExploits:     "exploits",
	ontology.RelAttributedTo: "attributed-to",
	ontology.RelIndicates:    "indicates",
	ontology.RelBelongsTo:    "variant-of",
	ontology.RelVariantOf:    "variant-of",
	ontology.RelCommunicates: "communicates-with",
	ontology.RelConnectsTo:   "communicates-with",
	ontology.RelDrops:        "drops",
	ontology.RelDownloads:    "downloads",
	ontology.RelMitigates:    "mitigates",
	ontology.RelDescribes:    "object-ref",
	ontology.RelMentions:     "object-ref",
	ontology.RelReportedBy:   "created-by",
}

// stixID derives a deterministic STIX identifier from the node identity so
// repeated exports are stable and diffable.
func stixID(stixType, typ, name string) string {
	sum := sha256.Sum256([]byte(typ + "\x00" + name))
	h := hex.EncodeToString(sum[:16])
	// UUID-shaped deterministic suffix.
	return fmt.Sprintf("%s--%s-%s-%s-%s-%s",
		stixType, h[0:8], h[8:12], h[12:16], h[16:20], h[20:32])
}

// Export writes the whole graph as one STIX bundle.
func Export(s *graph.Store, w io.Writer) error {
	b, err := BuildBundle(s)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return fmt.Errorf("stix: encode: %w", err)
	}
	return nil
}

// BuildBundle converts the graph into a STIX bundle in memory.
func BuildBundle(s *graph.Store) (*Bundle, error) {
	bundle := &Bundle{Type: "bundle"}
	ids := map[graph.NodeID]string{}

	sn := s.Snapshot()
	defer sn.Release()
	var nodeErr error
	sn.ForEachNode(func(n *graph.Node) bool {
		st, ok := typeMap[ontology.EntityType(n.Type)]
		if !ok {
			return true // unknown types are skipped, not fatal
		}
		id := stixID(st, n.Type, n.Name)
		ids[n.ID] = id
		obj := Object{
			Type:        st,
			SpecVersion: "2.1",
			ID:          id,
			Labels:      []string{strings.ToLower(n.Type)},
		}
		switch st {
		case "ipv4-addr", "domain-name", "url", "email-addr":
			obj.Value = n.Name
		case "windows-registry-key":
			obj.CustomProps = map[string]string{"key": n.Name}
		case "file":
			if ontology.EntityType(n.Type) == ontology.TypeHash {
				obj.CustomProps = map[string]string{"hash": n.Name}
			} else {
				obj.Name = n.Name
			}
		default:
			obj.Name = n.Name
		}
		if aliases, ok := n.Attrs.Lookup("aliases"); ok && aliases != "" {
			obj.Aliases = strings.Split(aliases, "|")
		}
		if len(n.Attrs) > 0 && obj.CustomProps == nil {
			props := map[string]string{}
			for _, kv := range n.Attrs {
				if kv.Key != "aliases" {
					props[kv.Key] = kv.Val
				}
			}
			if len(props) > 0 {
				obj.CustomProps = props
			}
		}
		bundle.Objects = append(bundle.Objects, obj)
		return true
	})
	if nodeErr != nil {
		return nil, nodeErr
	}

	sn.ForEachNode(func(n *graph.Node) bool {
		for _, e := range sn.Edges(n.ID, graph.Out) {
			src, okS := ids[e.From]
			dst, okD := ids[e.To]
			if !okS || !okD {
				continue
			}
			rel, ok := relMap[ontology.RelationType(e.Type)]
			if !ok {
				rel = "related-to"
			}
			id := stixID("relationship", e.Type, src+dst)
			bundle.Objects = append(bundle.Objects, Object{
				Type:        "relationship",
				SpecVersion: "2.1",
				ID:          id,
				RelType:     rel,
				SourceRef:   src,
				TargetRef:   dst,
			})
		}
		return true
	})

	sort.Slice(bundle.Objects, func(i, j int) bool {
		return bundle.Objects[i].ID < bundle.Objects[j].ID
	})
	bundle.ID = "bundle--" + bundleDigest(bundle)
	return bundle, nil
}

func bundleDigest(b *Bundle) string {
	h := sha256.New()
	for _, o := range b.Objects {
		io.WriteString(h, o.ID)
	}
	d := hex.EncodeToString(h.Sum(nil))
	return fmt.Sprintf("%s-%s-%s-%s-%s", d[0:8], d[8:12], d[12:16], d[16:20], d[20:32])
}
