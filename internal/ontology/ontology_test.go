package ontology

import (
	"testing"
)

func TestKnownEntityTypes(t *testing.T) {
	for _, et := range EntityTypes() {
		if !KnownEntityType(et) {
			t.Errorf("EntityTypes returned unknown type %q", et)
		}
	}
	if KnownEntityType("Bogus") {
		t.Error("Bogus should not be a known entity type")
	}
	if got := len(EntityTypes()); got != 21 {
		t.Errorf("expected 21 entity types (Figure 2 ontology), got %d", got)
	}
}

func TestKnownRelationTypes(t *testing.T) {
	for _, rt := range relationTypes {
		if !KnownRelationType(rt) {
			t.Errorf("relationTypes lists unknown type %q", rt)
		}
	}
	if KnownRelationType("BOGUS_REL") {
		t.Error("BOGUS_REL should not be a known relation type")
	}
}

func TestTypeClassPredicatesDisjoint(t *testing.T) {
	for _, et := range EntityTypes() {
		classes := 0
		if IsReportType(et) {
			classes++
		}
		if IsIOCType(et) {
			classes++
		}
		if IsThreatConcept(et) {
			classes++
		}
		if et == TypeCTIVendor {
			classes++
		}
		if classes != 1 {
			t.Errorf("entity type %q belongs to %d classes, want exactly 1", et, classes)
		}
	}
}

func TestEntityValidate(t *testing.T) {
	cases := []struct {
		name    string
		e       Entity
		wantErr bool
	}{
		{"valid malware", Entity{Type: TypeMalware, Name: "WannaCry"}, false},
		{"valid ioc", Entity{Type: TypeIP, Name: "10.2.3.4"}, false},
		{"unknown type", Entity{Type: "Nope", Name: "x"}, true},
		{"empty name", Entity{Type: TypeMalware, Name: "   "}, true},
	}
	for _, c := range cases {
		err := c.e.Validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr=%v", c.name, err, c.wantErr)
		}
	}
}

func TestRelationValidate(t *testing.T) {
	mal := Entity{Type: TypeMalware, Name: "WannaCry"}
	fam := Entity{Type: TypeMalwareFamily, Name: "Ransom.Win32"}
	ip := Entity{Type: TypeIP, Name: "10.0.0.1"}
	vendor := Entity{Type: TypeCTIVendor, Name: "AcmeSec"}

	good := []Relation{
		{Src: mal, Type: RelBelongsTo, Dst: fam},
		{Src: mal, Type: RelConnectsTo, Dst: ip},
		{Src: Entity{Type: TypeMalwareReport, Name: "r1"}, Type: RelReportedBy, Dst: vendor},
		{Src: mal, Type: RelEncrypts, Dst: Entity{Type: TypeFileName, Name: "a.docx"}},
	}
	for i, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("good[%d]: unexpected error: %v", i, err)
		}
	}

	bad := []Relation{
		{Src: fam, Type: RelBelongsTo, Dst: mal},                  // wrong direction
		{Src: ip, Type: RelEncrypts, Dst: mal},                    // IOC cannot encrypt
		{Src: vendor, Type: RelReportedBy, Dst: mal},              // vendor is not a report
		{Src: mal, Type: "NOT_A_REL", Dst: ip},                    // unknown relation
		{Src: Entity{Type: TypeMalware}, Type: RelUses, Dst: fam}, // empty name
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad[%d]: expected validation error for %+v", i, r)
		}
	}
}

func TestAdmissibleMatchesSchemaRules(t *testing.T) {
	// Every relation type must admit at least one (src,dst) pair, otherwise
	// the schema entry is dead.
	ets := EntityTypes()
	for _, rel := range relationTypes {
		found := false
		for _, s := range ets {
			for _, d := range ets {
				if Admissible(s, rel, d) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("relation %q admits no entity pair", rel)
		}
	}
}

func TestReportTypeFor(t *testing.T) {
	cases := map[string]EntityType{
		"malware":         TypeMalwareReport,
		"MALWARE":         TypeMalwareReport,
		" vulnerability ": TypeVulnerabilityReport,
		"vuln":            TypeVulnerabilityReport,
		"attack":          TypeAttackReport,
		"whatever":        TypeAttackReport,
		"":                TypeAttackReport,
	}
	for in, want := range cases {
		if got := ReportTypeFor(in); got != want {
			t.Errorf("ReportTypeFor(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestVerbRelationCuratedAndFallback(t *testing.T) {
	if got := VerbRelation("drop"); got != RelDrops {
		t.Errorf("drop -> %s, want DROP", got)
	}
	if got := VerbRelation("ENCRYPT"); got != RelEncrypts {
		t.Errorf("ENCRYPT -> %s, want ENCRYPT (case-insensitive)", got)
	}
	if got := VerbRelation("zorble"); got != RelRelatedTo {
		t.Errorf("unknown verb -> %s, want RELATED_TO fallback", got)
	}
	for v := range verbMap {
		if VerbRelation(v) == RelRelatedTo {
			t.Errorf("curated verb %q maps to fallback", v)
		}
	}
}

func TestEntityKeyUniquePerTypeName(t *testing.T) {
	a := Entity{Type: TypeMalware, Name: "x"}
	b := Entity{Type: TypeTool, Name: "x"}
	c := Entity{Type: TypeMalware, Name: "X"}
	if a.Key() == b.Key() {
		t.Error("different types with same name must have distinct keys")
	}
	if a.Key() == c.Key() {
		t.Error("exact-merge key must be case sensitive (merge is exact text)")
	}
}
