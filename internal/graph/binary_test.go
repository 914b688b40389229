package graph

import (
	"bytes"
	"strings"
	"testing"
)

// buildCodecStore assembles a store exercising every vocabulary surface
// the binary codec dictionaries: multiple labels, edge types, indexed and
// unindexed attrs, empty attrs, deletions, and a migrated edge.
func buildCodecStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	s.IndexAttr("cve")
	m1, _ := s.MergeNode("Malware", "emotet", map[string]string{"cve": "CVE-1", "family": "trojan"})
	m2, _ := s.MergeNode("Malware", "qakbot", nil)
	ip, _ := s.MergeNode("IP", "10.0.0.1", map[string]string{"asn": "65001"})
	dom, _ := s.MergeNode("Domain", "evil.example", nil)
	gone, _ := s.MergeNode("Tmp", "deleteme", map[string]string{"cve": "CVE-9"})
	if _, _, err := s.AddEdge(m1, "connects_to", ip, map[string]string{"port": "443"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AddEdge(m1, "resolves", dom, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AddEdge(m2, "connects_to", ip, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AddEdge(dom, "hosts", gone, nil); err != nil {
		t.Fatal(err)
	}
	if err := deleteNode(s, gone); err != nil {
		t.Fatal(err)
	}
	if err := migrateEdges(s, m2, m1); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBinaryRoundTrip: SaveBinary → Load reproduces the exact logical
// graph — proven by comparing the JSON serialization, which is already
// locked down as canonical by persist_test.go.
func TestBinaryRoundTrip(t *testing.T) {
	s := buildCodecStore(t)
	var wantJSON bytes.Buffer
	if err := s.Save(&wantJSON); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := s.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bin.String(), binaryMagic) {
		t.Fatalf("binary stream does not start with magic %q", binaryMagic)
	}
	loaded, err := Load(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("Load(binary): %v", err)
	}
	var gotJSON bytes.Buffer
	if err := loaded.Save(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if gotJSON.String() != wantJSON.String() {
		t.Fatalf("binary round-trip changed content:\nwant %s\ngot  %s", wantJSON.String(), gotJSON.String())
	}
	// The allocators must survive so post-load inserts never collide.
	id, created := loaded.MergeNode("Malware", "newone", nil)
	if !created {
		t.Fatal("expected new node after reload")
	}
	if orig := latest(t, s, func(sn *Snap) *Node { return sn.Node(id) }); orig != nil {
		t.Fatalf("reloaded store reused live node id %d", id)
	}
}

// TestBinaryDeterminism is the regression test for the symbol-table
// round-trip satellite: the binary bytes are a pure function of logical
// content, independent of intern order. A store whose symbols were
// interned in construction order and the same store reloaded (symbols
// re-interned in sorted string-section order, then JSON-load order) must
// serialize identically, through arbitrarily many round trips, and the
// JSON serialization too.
func TestBinaryDeterminism(t *testing.T) {
	s := buildCodecStore(t)
	var first bytes.Buffer
	if err := s.SaveBinary(&first); err != nil {
		t.Fatal(err)
	}
	// binary → load → binary: intern order differs (string-section order),
	// bytes must not.
	viaBinary, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := viaBinary.SaveBinary(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("binary bytes changed across a binary round trip")
	}
	// And the JSON serialization stays stable through a binary hop too.
	var asJSON bytes.Buffer
	if err := s.Save(&asJSON); err != nil {
		t.Fatal(err)
	}
	var jsonAfterBinary bytes.Buffer
	if err := viaBinary.Save(&jsonAfterBinary); err != nil {
		t.Fatal(err)
	}
	if jsonAfterBinary.String() != asJSON.String() {
		t.Fatal("JSON bytes differ after a binary round trip")
	}
}

// TestBinaryCorruption: damaged binary streams must error out (CRC or
// structural check), never panic or load silently wrong data.
func TestBinaryCorruption(t *testing.T) {
	s := buildCodecStore(t)
	var bin bytes.Buffer
	if err := s.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	good := bin.Bytes()

	t.Run("bit flip", func(t *testing.T) {
		for _, pos := range []int{len(binaryMagic) + 2, len(good) / 2, len(good) - 3} {
			bad := append([]byte{}, good...)
			bad[pos] ^= 0x20
			if _, err := Load(bytes.NewReader(bad)); err == nil {
				t.Errorf("flip at %d: corrupt stream loaded without error", pos)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{len(good) - 1, len(good) / 2, len(binaryMagic) + 1} {
			if _, err := Load(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("truncated at %d: loaded without error", cut)
			}
		}
	})
	t.Run("zero node id", func(t *testing.T) {
		// A hand-built stream with node id 0 must be rejected (IDs are
		// 1-based; the CSR rebuild relies on it).
		empty := New()
		var b bytes.Buffer
		if err := empty.SaveBinary(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(b.Bytes())); err != nil {
			t.Fatalf("empty store should round-trip: %v", err)
		}
	})
}
