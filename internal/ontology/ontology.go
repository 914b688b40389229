// Package ontology defines the security knowledge ontology of SecurityKG
// (Figure 2 of the paper): the set of entity types, relation types, and the
// schema constraints that say which relation may connect which entity types.
//
// The ontology is deliberately separate from the intermediate CTI
// representation (package ctirep): parsers and extractors fill the wide
// intermediate representation, and connectors refactor it into ontology
// entities and relations just before storage.
package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// EntityType identifies a node type in the security knowledge graph.
type EntityType string

// Entity types of the security knowledge ontology (Figure 2).
const (
	// Report entities. Every collected OSCTI report becomes exactly one
	// of these, according to its classified report kind.
	TypeMalwareReport       EntityType = "MalwareReport"
	TypeVulnerabilityReport EntityType = "VulnerabilityReport"
	TypeAttackReport        EntityType = "AttackReport"

	// TypeCTIVendor is the organization that published a report.
	TypeCTIVendor EntityType = "CTIVendor"

	// High-level threat concepts.
	TypeMalware         EntityType = "Malware"
	TypeMalwareFamily   EntityType = "MalwareFamily"
	TypeMalwarePlatform EntityType = "MalwarePlatform"
	TypeVulnerability   EntityType = "Vulnerability"
	TypeAttack          EntityType = "Attack"
	TypeThreatActor     EntityType = "ThreatActor"
	TypeTechnique       EntityType = "Technique"
	TypeTool            EntityType = "Tool"
	TypeSoftware        EntityType = "Software"

	// IOC entities (the low-level indicators the paper enumerates:
	// file name, file path, IP, URL, email, domain, registry, hashes).
	TypeFileName EntityType = "FileName"
	TypeFilePath EntityType = "FilePath"
	TypeIP       EntityType = "IP"
	TypeURL      EntityType = "URL"
	TypeEmail    EntityType = "Email"
	TypeDomain   EntityType = "Domain"
	TypeRegistry EntityType = "Registry"
	TypeHash     EntityType = "Hash"
)

// RelationType identifies an edge type in the security knowledge graph.
type RelationType string

// Relation types of the security knowledge ontology.
const (
	RelReportedBy    RelationType = "REPORTED_BY"   // report -> CTI vendor
	RelDescribes     RelationType = "DESCRIBES"     // report -> threat concept
	RelMentions      RelationType = "MENTIONS"      // report -> IOC / entity
	RelDrops         RelationType = "DROP"          // malware -> file IOC
	RelUses          RelationType = "USE"           // actor/malware -> tool/technique/malware
	RelTargets       RelationType = "TARGET"        // actor/malware/attack -> software/platform
	RelExploits      RelationType = "EXPLOIT"       // malware/attack/actor -> vulnerability
	RelCommunicates  RelationType = "COMMUNICATE"   // malware -> network IOC
	RelBelongsTo     RelationType = "BELONG_TO"     // malware -> family
	RelRunsOn        RelationType = "RUN_ON"        // malware/software -> platform
	RelAffects       RelationType = "AFFECT"        // vulnerability -> software
	RelIndicates     RelationType = "INDICATE"      // IOC -> threat concept
	RelModifies      RelationType = "MODIFY"        // malware -> registry/file IOC
	RelConnectsTo    RelationType = "CONNECT"       // malware -> IP/domain/URL
	RelDownloads     RelationType = "DOWNLOAD"      // malware -> URL/file
	RelSends         RelationType = "SEND"          // malware -> email/IP
	RelCreates       RelationType = "CREATE"        // malware -> file/registry
	RelDeletes       RelationType = "DELETE"        // malware -> file
	RelEncrypts      RelationType = "ENCRYPT"       // malware -> file
	RelInjects       RelationType = "INJECT"        // malware -> software
	RelAttributedTo  RelationType = "ATTRIBUTED_TO" // malware/attack -> threat actor
	RelAliasOf       RelationType = "ALIAS_OF"      // entity -> entity (same type)
	RelRelatedTo     RelationType = "RELATED_TO"    // generic fallback relation
	RelImplements    RelationType = "IMPLEMENT"     // tool -> technique
	RelMitigates     RelationType = "MITIGATE"      // software -> vulnerability/technique
	RelPhishes       RelationType = "PHISH"         // actor/malware -> email
	RelPersistsVia   RelationType = "PERSIST_VIA"   // malware -> registry/technique
	RelSpreadsVia    RelationType = "SPREAD_VIA"    // malware -> technique/email/URL
	RelExfiltratesTo RelationType = "EXFILTRATE_TO" // malware -> IP/domain/URL
	RelHasHash       RelationType = "HAS_HASH"      // file/malware -> hash
	RelHostedAt      RelationType = "HOSTED_AT"     // file/url -> domain/IP
	RelResolvesTo    RelationType = "RESOLVE_TO"    // domain -> IP
	RelVariantOf     RelationType = "VARIANT_OF"    // malware -> malware/family
	RelLocatedAt     RelationType = "LOCATED_AT"    // file name -> file path
	RelSimilarTo     RelationType = "SIMILAR_TO"    // knowledge-fusion provenance edge
)

// Entity is one typed node candidate: a name plus key-value attributes.
// Name is the canonical description text; the storage layer merges entities
// whose (Type, Name) are exactly equal, per Section 2.5 of the paper.
type Entity struct {
	Type  EntityType        `json:"type"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Key returns the exact-merge identity of the entity used by the storage
// stage: the node type plus the description text, case-preserved.
func (e Entity) Key() string { return string(e.Type) + "\x00" + e.Name }

// Validate reports whether the entity is structurally sound.
func (e Entity) Validate() error {
	if !KnownEntityType(e.Type) {
		return fmt.Errorf("ontology: unknown entity type %q", e.Type)
	}
	if strings.TrimSpace(e.Name) == "" {
		return fmt.Errorf("ontology: entity of type %s has empty name", e.Type)
	}
	return nil
}

// Relation is one typed edge candidate between two entities.
type Relation struct {
	Src   Entity            `json:"src"`
	Type  RelationType      `json:"type"`
	Dst   Entity            `json:"dst"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Validate checks both endpoints and the schema admissibility of the triple.
func (r Relation) Validate() error {
	if err := r.Src.Validate(); err != nil {
		return fmt.Errorf("ontology: relation source: %w", err)
	}
	if err := r.Dst.Validate(); err != nil {
		return fmt.Errorf("ontology: relation target: %w", err)
	}
	if !KnownRelationType(r.Type) {
		return fmt.Errorf("ontology: unknown relation type %q", r.Type)
	}
	if !Admissible(r.Src.Type, r.Type, r.Dst.Type) {
		return fmt.Errorf("ontology: triple <%s, %s, %s> violates schema",
			r.Src.Type, r.Type, r.Dst.Type)
	}
	return nil
}

// entityTypes enumerates every known entity type.
var entityTypes = []EntityType{
	TypeMalwareReport, TypeVulnerabilityReport, TypeAttackReport,
	TypeCTIVendor,
	TypeMalware, TypeMalwareFamily, TypeMalwarePlatform,
	TypeVulnerability, TypeAttack, TypeThreatActor,
	TypeTechnique, TypeTool, TypeSoftware,
	TypeFileName, TypeFilePath, TypeIP, TypeURL, TypeEmail,
	TypeDomain, TypeRegistry, TypeHash,
}

// relationTypes enumerates every known relation type.
var relationTypes = []RelationType{
	RelReportedBy, RelDescribes, RelMentions, RelDrops, RelUses,
	RelTargets, RelExploits, RelCommunicates, RelBelongsTo, RelRunsOn,
	RelAffects, RelIndicates, RelModifies, RelConnectsTo, RelDownloads,
	RelSends, RelCreates, RelDeletes, RelEncrypts, RelInjects,
	RelAttributedTo, RelAliasOf, RelRelatedTo, RelImplements, RelMitigates,
	RelPhishes, RelPersistsVia, RelSpreadsVia, RelExfiltratesTo, RelHasHash,
	RelHostedAt, RelResolvesTo, RelVariantOf, RelLocatedAt, RelSimilarTo,
}

var entityTypeSet = func() map[EntityType]bool {
	m := make(map[EntityType]bool, len(entityTypes))
	for _, t := range entityTypes {
		m[t] = true
	}
	return m
}()

var relationTypeSet = func() map[RelationType]bool {
	m := make(map[RelationType]bool, len(relationTypes))
	for _, t := range relationTypes {
		m[t] = true
	}
	return m
}()

// EntityTypes returns all entity types in a stable, sorted order.
func EntityTypes() []EntityType {
	out := make([]EntityType, len(entityTypes))
	copy(out, entityTypes)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KnownEntityType reports whether t is part of the ontology.
func KnownEntityType(t EntityType) bool { return entityTypeSet[t] }

// KnownRelationType reports whether t is part of the ontology.
func KnownRelationType(t RelationType) bool { return relationTypeSet[t] }

// IsReportType reports whether t is one of the three report entity types.
func IsReportType(t EntityType) bool {
	return t == TypeMalwareReport || t == TypeVulnerabilityReport || t == TypeAttackReport
}

// IsIOCType reports whether t is a low-level indicator-of-compromise type.
func IsIOCType(t EntityType) bool {
	switch t {
	case TypeFileName, TypeFilePath, TypeIP, TypeURL, TypeEmail,
		TypeDomain, TypeRegistry, TypeHash:
		return true
	}
	return false
}

// IsThreatConcept reports whether t is a high-level threat concept
// (everything that is neither a report, a vendor, nor an IOC).
func IsThreatConcept(t EntityType) bool {
	return KnownEntityType(t) && !IsReportType(t) && !IsIOCType(t) && t != TypeCTIVendor
}

// typeClass groups entity types for compact schema rules.
type typeClass int

const (
	classAny typeClass = iota
	classReport
	classThreat   // high-level threat concepts
	classIOC      // low-level indicators
	classNetIOC   // IP, URL, domain
	classFileIOC  // file name, file path
	classActorish // things that can "act": malware, actor, attack, tool
)

func inClass(t EntityType, c typeClass) bool {
	switch c {
	case classAny:
		return KnownEntityType(t)
	case classReport:
		return IsReportType(t)
	case classThreat:
		return IsThreatConcept(t)
	case classIOC:
		return IsIOCType(t)
	case classNetIOC:
		return t == TypeIP || t == TypeURL || t == TypeDomain
	case classFileIOC:
		return t == TypeFileName || t == TypeFilePath
	case classActorish:
		return t == TypeMalware || t == TypeThreatActor || t == TypeAttack ||
			t == TypeTool || t == TypeMalwareFamily
	}
	return false
}

// schemaRule admits (src, rel, dst) triples where src is in Src class/type
// and dst is in Dst class/type. Exact types take priority over classes.
type schemaRule struct {
	srcClass typeClass
	srcTypes []EntityType // if non-empty, overrides srcClass
	dstClass typeClass
	dstTypes []EntityType
}

func (r schemaRule) matchSrc(t EntityType) bool {
	if len(r.srcTypes) > 0 {
		for _, s := range r.srcTypes {
			if s == t {
				return true
			}
		}
		return false
	}
	return inClass(t, r.srcClass)
}

func (r schemaRule) matchDst(t EntityType) bool {
	if len(r.dstTypes) > 0 {
		for _, d := range r.dstTypes {
			if d == t {
				return true
			}
		}
		return false
	}
	return inClass(t, r.dstClass)
}

// schema maps each relation type to its admissibility rules.
var schema = map[RelationType][]schemaRule{
	RelReportedBy: {{srcClass: classReport, dstTypes: []EntityType{TypeCTIVendor}}},
	RelDescribes:  {{srcClass: classReport, dstClass: classThreat}},
	RelMentions:   {{srcClass: classReport, dstClass: classAny}},
	RelDrops: {{
		srcTypes: []EntityType{TypeMalware, TypeThreatActor, TypeAttack, TypeTool, TypeMalwareFamily},
		dstTypes: []EntityType{TypeFileName, TypeFilePath, TypeHash, TypeTool},
	}},
	RelUses: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeTool, TypeTechnique, TypeMalware, TypeMalwareFamily, TypeSoftware, TypeVulnerability},
	}},
	RelTargets: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeSoftware, TypeMalwarePlatform, TypeDomain, TypeIP, TypeURL},
	}},
	RelExploits: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeVulnerability, TypeSoftware},
	}},
	RelCommunicates: {{srcClass: classActorish, dstClass: classNetIOC}},
	RelBelongsTo: {{
		srcTypes: []EntityType{TypeMalware},
		dstTypes: []EntityType{TypeMalwareFamily},
	}},
	RelRunsOn: {{
		srcTypes: []EntityType{TypeMalware, TypeMalwareFamily, TypeSoftware, TypeTool},
		dstTypes: []EntityType{TypeMalwarePlatform},
	}},
	RelAffects: {{
		srcTypes: []EntityType{TypeVulnerability},
		dstTypes: []EntityType{TypeSoftware, TypeMalwarePlatform},
	}},
	RelIndicates: {{srcClass: classIOC, dstClass: classThreat}},
	RelModifies: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeRegistry, TypeFileName, TypeFilePath, TypeSoftware},
	}},
	RelConnectsTo: {{srcClass: classActorish, dstClass: classNetIOC}},
	RelDownloads: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeURL, TypeFileName, TypeFilePath, TypeTool, TypeMalware},
	}},
	RelSends: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeEmail, TypeIP, TypeURL, TypeDomain},
	}},
	RelCreates: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeFileName, TypeFilePath, TypeRegistry},
	}},
	RelDeletes: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeFileName, TypeFilePath, TypeRegistry},
	}},
	RelEncrypts: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeFileName, TypeFilePath},
	}},
	RelInjects: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeSoftware, TypeTool, TypeFileName},
	}},
	RelAttributedTo: {{
		srcTypes: []EntityType{TypeMalware, TypeMalwareFamily, TypeAttack, TypeTool},
		dstTypes: []EntityType{TypeThreatActor},
	}},
	RelAliasOf:   {{srcClass: classAny, dstClass: classAny}},
	RelRelatedTo: {{srcClass: classAny, dstClass: classAny}},
	RelImplements: {{
		srcTypes: []EntityType{TypeTool, TypeMalware, TypeSoftware},
		dstTypes: []EntityType{TypeTechnique},
	}},
	RelMitigates: {{
		srcTypes: []EntityType{TypeSoftware, TypeTool},
		dstTypes: []EntityType{TypeVulnerability, TypeTechnique, TypeMalware},
	}},
	RelPhishes: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeEmail, TypeURL, TypeDomain},
	}},
	RelPersistsVia: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeRegistry, TypeTechnique, TypeFilePath},
	}},
	RelSpreadsVia: {{
		srcClass: classActorish,
		dstTypes: []EntityType{TypeTechnique, TypeEmail, TypeURL, TypeDomain, TypeSoftware},
	}},
	RelExfiltratesTo: {{srcClass: classActorish, dstClass: classNetIOC}},
	RelHasHash: {{
		srcTypes: []EntityType{TypeFileName, TypeFilePath, TypeMalware, TypeTool},
		dstTypes: []EntityType{TypeHash},
	}},
	RelHostedAt: {{
		srcTypes: []EntityType{TypeFileName, TypeURL, TypeTool, TypeMalware},
		dstTypes: []EntityType{TypeDomain, TypeIP, TypeURL},
	}},
	RelResolvesTo: {{
		srcTypes: []EntityType{TypeDomain, TypeURL},
		dstTypes: []EntityType{TypeIP},
	}},
	RelVariantOf: {{
		srcTypes: []EntityType{TypeMalware},
		dstTypes: []EntityType{TypeMalware, TypeMalwareFamily},
	}},
	RelLocatedAt: {{
		srcTypes: []EntityType{TypeFileName},
		dstTypes: []EntityType{TypeFilePath},
	}},
	RelSimilarTo: {{srcClass: classAny, dstClass: classAny}},
}

// Admissible reports whether the ontology schema admits an edge of type rel
// from an entity of type src to an entity of type dst.
func Admissible(src EntityType, rel RelationType, dst EntityType) bool {
	rules, ok := schema[rel]
	if !ok {
		return false
	}
	for _, r := range rules {
		if r.matchSrc(src) && r.matchDst(dst) {
			return true
		}
	}
	return false
}

// ReportTypeFor maps a report kind label ("malware", "vulnerability",
// "attack") to the corresponding report entity type. Unknown kinds map to
// TypeAttackReport, the broadest category.
func ReportTypeFor(kind string) EntityType {
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "malware":
		return TypeMalwareReport
	case "vulnerability", "vuln":
		return TypeVulnerabilityReport
	default:
		return TypeAttackReport
	}
}

// VerbRelation maps a lemmatized relation verb extracted from text to an
// ontology relation type. It returns RelRelatedTo for verbs outside the
// curated mapping so that no extracted relation is silently dropped.
func VerbRelation(verbLemma string) RelationType {
	if r, ok := verbMap[strings.ToLower(verbLemma)]; ok {
		return r
	}
	return RelRelatedTo
}

var verbMap = map[string]RelationType{
	"drop":        RelDrops,
	"use":         RelUses,
	"leverage":    RelUses,
	"employ":      RelUses,
	"utilize":     RelUses,
	"deploy":      RelUses,
	"target":      RelTargets,
	"attack":      RelTargets,
	"compromise":  RelTargets,
	"infect":      RelTargets,
	"exploit":     RelExploits,
	"abuse":       RelExploits,
	"communicate": RelCommunicates,
	"beacon":      RelCommunicates,
	"contact":     RelConnectsTo,
	"connect":     RelConnectsTo,
	"belong":      RelBelongsTo,
	"run":         RelRunsOn,
	"affect":      RelAffects,
	"indicate":    RelIndicates,
	"modify":      RelModifies,
	"alter":       RelModifies,
	"download":    RelDownloads,
	"fetch":       RelDownloads,
	"retrieve":    RelDownloads,
	"send":        RelSends,
	"transmit":    RelSends,
	"create":      RelCreates,
	"write":       RelCreates,
	"install":     RelCreates,
	"delete":      RelDeletes,
	"remove":      RelDeletes,
	"encrypt":     RelEncrypts,
	"inject":      RelInjects,
	"attribute":   RelAttributedTo,
	"implement":   RelImplements,
	"mitigate":    RelMitigates,
	"patch":       RelMitigates,
	"phish":       RelPhishes,
	"persist":     RelPersistsVia,
	"spread":      RelSpreadsVia,
	"propagate":   RelSpreadsVia,
	"exfiltrate":  RelExfiltratesTo,
	"upload":      RelExfiltratesTo,
	"steal":       RelExfiltratesTo,
	"host":        RelHostedAt,
	"resolve":     RelResolvesTo,
}
