package graph

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The persistence oracle: testdata/oracle.jsonl and testdata/oracle.bin
// are the Save and SaveBinary streams the commit *before* the slab /
// posting / slice-attrs representation wrote for oracleHistory. The
// in-memory representation may change freely; these bytes may not.
// Regenerate (-update-oracle) only for a change that means to alter the
// on-disk format.

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/oracle.* from this build")

// oracleHistory replays a seeded mixed history through the public write
// surface: a bulk load, merge hits that augment attributes, SetAttr on
// an indexed key, deletes, edge migration, a committed transaction and a
// rolled-back one that created and deleted nodes — all of it under an
// open snapshot, so every write takes the version-tracking path. The
// snapshot's view is checked before it closes.
func oracleHistory(t *testing.T) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	s := New()
	s.IndexAttr("family")

	// Values that exercise every JSON escape class and multi-byte runes.
	vals := []string{"worm", "rat", `a"b\c`, "<script>&amp;", "tab\there", "nl\nx", " sep", "café", "bad\xffutf8", "\x01ctl", ""}
	labels := []string{"Malware", "IP", "Domain", "Tool", "ThreatActor", "MalwareReport"}
	etypes := []string{"CONNECT", "USE", "DESCRIBES", "ATTRIBUTED_TO", "RESOLVE"}
	attrsFor := func(i int) map[string]string {
		switch i % 4 {
		case 0:
			return nil
		case 1:
			return map[string]string{"family": vals[i%len(vals)]}
		case 2:
			return map[string]string{"family": vals[(i/4)%3], "seen": fmt.Sprint(2000 + i%25)}
		}
		return map[string]string{"zeta": "z", "alpha": vals[i%len(vals)], "mid<key>": "m", "family": "rat"}
	}

	s.Reserve(600, 2400)
	s.BeginBulk()
	var ids []NodeID
	for i := 0; i < 500; i++ {
		id, _ := s.MergeNode(labels[i%len(labels)], fmt.Sprintf("n-%d", i), attrsFor(i))
		ids = append(ids, id)
	}
	for i := 0; i < 2000; i++ {
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(40+rng.Intn(len(ids)-40))]
		var attrs map[string]string
		if i%5 == 0 {
			attrs = map[string]string{"proto": vals[i%len(vals)], "count": fmt.Sprint(i % 7)}
		}
		if _, _, err := s.AddEdge(from, etypes[rng.Intn(len(etypes))], to, attrs); err != nil {
			t.Fatalf("bulk AddEdge: %v", err)
		}
	}
	s.EndBulk()
	checkLiveCounts(t, s)

	snap := s.Snapshot()
	defer snap.Release()
	wantNodes, wantEdges := s.CountNodes(), s.Stats().Edges
	wantMalware := snap.NodeIDsByType("Malware")
	wantRat := snap.NodeIDsByAttr("family", "rat")

	// Same (type, name) under the same name but another label: shared
	// name postings of length > 1.
	for i := 0; i < 40; i++ {
		s.MergeNode("Alias", fmt.Sprintf("n-%d", i*3), map[string]string{"family": "worm"})
	}
	checkLiveCounts(t, s)
	// Merge hits: new keys are added, existing keys keep their value.
	for i := 0; i < 120; i++ {
		j := rng.Intn(500)
		s.MergeNode(labels[j%len(labels)], fmt.Sprintf("n-%d", j),
			map[string]string{"family": "late", "added": vals[i%len(vals)], "beta": "b"})
	}
	checkLiveCounts(t, s)
	// Edge re-adds that augment attributes.
	for i := 0; i < 60; i++ {
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(40)]
		s.AddEdge(from, etypes[i%len(etypes)], to, map[string]string{"again": fmt.Sprint(i)})
	}
	checkLiveCounts(t, s)
	// SetAttr on the indexed key, a fresh key, and a no-op rewrite.
	for i := 0; i < 80; i++ {
		id := ids[rng.Intn(len(ids))]
		if err := setAttr(s, id, "family", vals[rng.Intn(3)]); err != nil {
			t.Fatalf("SetAttr: %v", err)
		}
		setAttr(s, id, "triaged", "yes")
		setAttr(s, id, "triaged", "yes")
	}
	for i := 0; i < 30; i++ {
		if err := deleteNode(s, ids[100+i*7]); err != nil {
			t.Fatalf("DeleteNode: %v", err)
		}
	}
	checkLiveCounts(t, s)
	for i := 0; i < 25; i++ {
		now := s.Snapshot() // no transaction is open: this is the latest state
		e := now.Edges(ids[rng.Intn(40)], Out)
		now.Release()
		if len(e) > 0 {
			if err := deleteEdge(s, e[len(e)/2].ID); err != nil {
				t.Fatalf("DeleteEdge: %v", err)
			}
		}
	}
	checkLiveCounts(t, s)
	for i := 0; i < 12; i++ {
		if err := migrateEdges(s, ids[3+i*2], ids[rng.Intn(20)*2]); err != nil {
			t.Fatalf("MigrateEdges: %v", err)
		}
	}
	checkLiveCounts(t, s)

	// A committed transaction...
	tx := s.BeginTx()
	for i := 0; i < 20; i++ {
		a := tx.MergeNode("Host", fmt.Sprintf("h-%d", i), map[string]string{"family": "worm", "os": "linux"}).Node.ID
		tx.AddEdge(a, "SCANS", ids[i], nil)
		tx.SetAttr(a, "os", "bsd")
	}
	tx.DeleteNode(ids[1], true)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkLiveCounts(t, s)
	// ...and a rolled-back one: creates nodes (extending every ID-ordered
	// structure), deletes old and own nodes, reclaims a deleted node's
	// (type, name), rewrites an indexed attr, migrates edges.
	before := saveBytesOf(t, s)
	tx = s.BeginTx()
	var mine []NodeID
	for i := 0; i < 30; i++ {
		a := tx.MergeNode("Host", fmt.Sprintf("ghost-%d", i), map[string]string{"family": "rat"}).Node.ID
		tx.AddEdge(a, "SCANS", ids[2+i], map[string]string{"k": "v"})
		mine = append(mine, a)
	}
	tx.DeleteNode(mine[3], true)
	tx.DeleteNode(ids[2], true)
	tx.MergeNode(labels[2], "n-2", map[string]string{"family": "reborn"})
	tx.SetAttr(ids[4], "family", "rolled")
	tx.MigrateEdges(ids[6], ids[8])
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if after := saveBytesOf(t, s); !bytes.Equal(before, after) {
		t.Fatal("rollback did not restore the Save stream")
	}
	checkLiveCounts(t, s)
	// IDs handed back by the rollback are allocated again.
	for i := 0; i < 10; i++ {
		a, _ := s.MergeNode("Host", fmt.Sprintf("real-%d", i), map[string]string{"family": vals[i]})
		s.AddEdge(a, "SCANS", ids[0], nil)
	}
	checkLiveCounts(t, s)

	// The snapshot still reads the state it opened on.
	if n := len(snap.AllNodeIDs()); n != wantNodes {
		t.Errorf("snapshot sees %d nodes, want %d", n, wantNodes)
	}
	if got := snap.NodeIDsByType("Malware"); fmt.Sprint(got) != fmt.Sprint(wantMalware) {
		t.Errorf("snapshot label scan changed: %d ids, want %d", len(got), len(wantMalware))
	}
	if got := snap.NodeIDsByAttr("family", "rat"); fmt.Sprint(got) != fmt.Sprint(wantRat) {
		t.Errorf("snapshot attr seek changed: %v, want %v", got, wantRat)
	}
	edges := 0
	for _, id := range snap.AllNodeIDs() {
		edges += len(snap.Edges(id, Out))
	}
	if edges != wantEdges {
		t.Errorf("snapshot sees %d edges, want %d", edges, wantEdges)
	}
	return s
}

func TestPersistenceOracle(t *testing.T) {
	s := oracleHistory(t)
	if st := s.MVCCStats(); st != (MVCCStats{}) {
		t.Errorf("history left MVCC state behind: %+v", st)
	}
	var bin bytes.Buffer
	if err := s.SaveBinary(&bin); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	streams := map[string][]byte{"oracle.jsonl": saveBytesOf(t, s), "oracle.bin": bin.Bytes()}
	if *updateOracle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for name, got := range streams {
			if err := os.WriteFile(filepath.Join("testdata", name), got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, got := range streams {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%v (generate with -update-oracle on the commit that owns the format)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: this build writes %d bytes that differ from the recorded %d", name, len(got), len(want))
		}
	}
	// The recorded binary stream loads, and re-saves to both recorded
	// streams.
	want := streams["oracle.bin"]
	loaded, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("oracle.bin: Load: %v", err)
	}
	checkLiveCounts(t, loaded)
	if loaded.Stats().Nodes != s.Stats().Nodes || loaded.Stats().Edges != s.Stats().Edges {
		t.Errorf("oracle.bin: loaded %+v, want %+v", loaded.Stats(), s.Stats())
	}
	if !bytes.Equal(saveBytesOf(t, loaded), streams["oracle.jsonl"]) {
		t.Error("oracle.bin: Load then Save differs from the recorded JSON stream")
	}
	var rebin bytes.Buffer
	if err := loaded.SaveBinary(&rebin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebin.Bytes(), want) {
		t.Error("oracle.bin: Load then SaveBinary differs from the recorded binary stream")
	}
}
