package relstore

import (
	"fmt"
	"sync"
	"testing"
)

func newT(t *testing.T) *Store {
	t.Helper()
	s := New()
	if err := s.CreateTable("ents", "type", "name"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateTableValidation(t *testing.T) {
	s := newT(t)
	if err := s.CreateTable("ents", "x"); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := s.CreateTable("empty"); err == nil {
		t.Error("zero-column table accepted")
	}
	if err := s.CreateTable("dup", "a", "a"); err == nil {
		t.Error("duplicate column accepted")
	}
	if len(s.tables) != 1 || s.tables["ents"] == nil {
		t.Errorf("tables: %v", s.tables)
	}
}

func TestInsertSelect(t *testing.T) {
	s := newT(t)
	rows := []Row{
		{"type": "Malware", "name": "WannaCry"},
		{"type": "Malware", "name": "Emotet"},
		{"type": "Tool", "name": "Mimikatz"},
	}
	for _, r := range rows {
		if err := s.Insert("ents", r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Select("ents", Row{"type": "Malware"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("select: %+v", got)
	}
	all, _ := s.Select("ents", nil)
	if len(all) != 3 {
		t.Errorf("select all: %d", len(all))
	}
	none, _ := s.Select("ents", Row{"type": "Nope"})
	if len(none) != 0 {
		t.Errorf("select none: %+v", none)
	}
	if n, _ := s.Count("ents"); n != 3 {
		t.Errorf("count: %d", n)
	}
}

func TestInsertUnknownColumnRejected(t *testing.T) {
	s := newT(t)
	if err := s.Insert("ents", Row{"bogus": "x"}); err == nil {
		t.Error("unknown column accepted")
	}
	if err := s.Insert("missing", Row{"type": "x"}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestMissingColumnsDefaultEmpty(t *testing.T) {
	s := newT(t)
	s.Insert("ents", Row{"name": "OnlyName"})
	got, _ := s.Select("ents", Row{"type": ""})
	if len(got) != 1 || got[0]["name"] != "OnlyName" {
		t.Errorf("default empty column: %+v", got)
	}
}

func TestIndexedSelectMatchesScan(t *testing.T) {
	s := newT(t)
	for i := 0; i < 200; i++ {
		s.Insert("ents", Row{"type": "T", "name": fmt.Sprintf("n%d", i%50)})
	}
	scan, _ := s.Select("ents", Row{"name": "n7"})
	if err := s.CreateIndex("ents", "name"); err != nil {
		t.Fatal(err)
	}
	idx, _ := s.Select("ents", Row{"name": "n7"})
	if len(scan) != len(idx) || len(idx) != 4 {
		t.Errorf("scan=%d idx=%d want 4", len(scan), len(idx))
	}
	// Index stays current for later inserts.
	s.Insert("ents", Row{"type": "T", "name": "n7"})
	idx2, _ := s.Select("ents", Row{"name": "n7"})
	if len(idx2) != 5 {
		t.Errorf("index stale after insert: %d", len(idx2))
	}
}

func TestIndexErrors(t *testing.T) {
	s := newT(t)
	if err := s.CreateIndex("missing", "x"); err == nil {
		t.Error("index on missing table accepted")
	}
	if err := s.CreateIndex("ents", "bogus"); err == nil {
		t.Error("index on missing column accepted")
	}
}

func TestSelectUnknownWhereColumn(t *testing.T) {
	s := newT(t)
	if _, err := s.Select("ents", Row{"bogus": "x"}); err == nil {
		t.Error("unknown where column accepted")
	}
}

func TestSelectReturnsCopies(t *testing.T) {
	s := newT(t)
	s.Insert("ents", Row{"type": "T", "name": "orig"})
	got, _ := s.Select("ents", nil)
	got[0]["name"] = "mutated"
	again, _ := s.Select("ents", nil)
	if again[0]["name"] != "orig" {
		t.Error("Select exposes internal rows")
	}
}

func TestConcurrentInsertSelect(t *testing.T) {
	s := newT(t)
	s.CreateIndex("ents", "name")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Insert("ents", Row{"type": "T", "name": fmt.Sprintf("w%d-%d", w, i)})
				s.Select("ents", Row{"name": fmt.Sprintf("w%d-%d", w, i/2)})
			}
		}(w)
	}
	wg.Wait()
	if n, _ := s.Count("ents"); n != 400 {
		t.Errorf("concurrent inserts lost rows: %d", n)
	}
}
