package gazetteer

import (
	"math/rand"
	"strings"
	"testing"
)

func TestListsNonEmptyAndDistinct(t *testing.T) {
	lists := map[string][]string{
		"actors": ThreatActors(), "techniques": Techniques(),
		"tools": Tools(), "malware": Malware(), "families": MalwareFamilies(),
		"platforms": Platforms(), "software": Software(), "vendors": vendors,
	}
	for name, l := range lists {
		if len(l) < 10 {
			t.Errorf("list %s too small: %d", name, len(l))
		}
		seen := map[string]bool{}
		for _, x := range l {
			if seen[Normalize(x)] {
				t.Errorf("list %s has duplicate %q", name, x)
			}
			seen[Normalize(x)] = true
		}
	}
}

func TestListsReturnCopies(t *testing.T) {
	a := Malware()
	a[0] = "MUTATED"
	if Malware()[0] == "MUTATED" {
		t.Error("Malware() exposes internal slice")
	}
}

func TestLookupMatching(t *testing.T) {
	l := NewLookup()
	cases := []struct {
		phrase string
		class  Class
	}{
		{"WannaCry", ClassMalware},
		{"wannacry", ClassMalware},
		{"Lazarus Group", ClassActor},
		{"lazarus   group", ClassActor},
		{"credential dumping", ClassTechnique},
		{"Mimikatz", ClassTool},
		{"Microsoft Exchange", ClassSoftware},
		{"Windows", ClassPlatform},
		{"Kaspersky", ClassVendor},
		{"ransomware", ClassFamily},
	}
	for _, c := range cases {
		got, ok := l.Match(c.phrase)
		if !ok || got != c.class {
			t.Errorf("Match(%q) = %v,%v want %v", c.phrase, got, ok, c.class)
		}
	}
	if _, ok := l.Match("definitely not curated"); ok {
		t.Error("matched uncurated phrase")
	}
}

func TestLookupLongestMatch(t *testing.T) {
	l := NewLookup()
	toks := []string{"the", "lazarus", "group", "used", "mimikatz"}
	if n, c := l.LongestMatch(toks, 1); n != 2 || c != ClassActor {
		t.Errorf("two-word phrase: %d %v", n, c)
	}
	if n, c := l.LongestMatch(toks, 4); n != 1 || c != ClassTool {
		t.Errorf("last token: %d %v", n, c)
	}
	if n, _ := l.LongestMatch(toks, 0); n != 0 {
		t.Errorf("uncurated token matched %d tokens", n)
	}
}

// LongestMatch is the longest n for which the joined span is a curated
// phrase after Normalize; check it against that definition, including
// tokens Normalize rewrites (Unicode spaces and letters).
func TestLongestMatchAgainstDefinition(t *testing.T) {
	l := NewLookup()
	words := []string{"lazarus", "group", "apt", "28", "cobalt", "strike", "the", "process",
		"injection", "command", "and", "control", "-", ":", "powershell", "\u00a0", "group\u00a0", "caf\u00e9", "\u0130"}
	for key := range l.phrases {
		words = append(words, strings.Fields(key)...)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		toks := make([]string, 1+rng.Intn(8))
		for i := range toks {
			toks[i] = words[rng.Intn(len(words))]
		}
		for i := range toks {
			wantN, wantC := 0, Class("")
			for n := l.maxLen; n >= 1 && wantN == 0; n-- {
				if i+n <= len(toks) {
					if c, ok := l.Match(strings.Join(toks[i:i+n], " ")); ok {
						wantN, wantC = n, c
					}
				}
			}
			if n, c := l.LongestMatch(toks, i); n != wantN || c != wantC {
				t.Fatalf("LongestMatch(%q, %d) = %d %v, want %d %v", toks, i, n, c, wantN, wantC)
			}
		}
	}
}

func TestLookupMaxPhraseLen(t *testing.T) {
	l := NewLookup()
	if l.maxLen < 3 {
		t.Errorf("max phrase len %d, expected >= 3 (e.g. multi-word techniques)", l.maxLen)
	}
	if l.Size() < 200 {
		t.Errorf("lookup too small: %d phrases", l.Size())
	}
}

func TestClassesStable(t *testing.T) {
	cs := Classes()
	if len(cs) != 8 {
		t.Fatalf("expected 8 classes, got %d", len(cs))
	}
	if cs[0] != ClassMalware || cs[7] != ClassVendor {
		t.Errorf("class order changed: %v", cs)
	}
}

func TestNormalize(t *testing.T) {
	if Normalize("  Lazarus   GROUP ") != "lazarus group" {
		t.Errorf("normalize failed: %q", Normalize("  Lazarus   GROUP "))
	}
}
