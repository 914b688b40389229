package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"securitykg/internal/graph"
	"securitykg/internal/search"
)

// body GETs path and returns the status and the body bytes.
func body(t *testing.T, s *Server, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, b
}

// TestViewEndpointsIgnoreOpenTx: the exploration endpoints serve the
// committed graph. While a transaction that merges a node, links it to a
// committed node and deletes another committed node is open — and after
// it rolls back — every view body is byte for byte what it was before the
// transaction began: the uncommitted node is not found, the expand from
// its committed endpoint shows neither it nor its edge, and the node the
// transaction deleted still answers.
func TestViewEndpointsIgnoreOpenTx(t *testing.T) {
	s, store, wc := testServer(t)
	rep := findNode(store, "MalwareReport", "r1")
	ip := findNode(store, "IP", "10.0.0.1")
	paths := []string{
		fmt.Sprintf("/api/node?id=%d", wc),
		fmt.Sprintf("/api/node?id=%d", ip.ID),
		fmt.Sprintf("/api/expand?id=%d", wc),
		fmt.Sprintf("/api/expand?id=%d&depth=2", rep.ID),
		fmt.Sprintf("/api/collapse?id=%d&view=%d,%d,%d&anchors=%d", wc, rep.ID, wc, ip.ID, rep.ID),
		"/api/random?n=10&seed=3",
	}
	before := map[string]string{}
	for _, p := range paths {
		code, b := body(t, s, p)
		if code != 200 {
			t.Fatalf("%s: status %d before the transaction", p, code)
		}
		before[p] = string(b)
	}
	check := func(when string) {
		t.Helper()
		for _, p := range paths {
			if code, b := body(t, s, p); code != 200 || string(b) != before[p] {
				t.Errorf("%s: %s: status %d, body\n%s\nwant\n%s", when, p, code, b, before[p])
			}
		}
	}

	tx := store.BeginTx()
	x := tx.MergeNode("Host", "uncommitted", nil).Node.ID
	if _, err := tx.AddEdge(x, "SCANS", wc, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.DeleteNode(ip.ID, true); err != nil {
		t.Fatal(err)
	}
	if code, b := body(t, s, fmt.Sprintf("/api/node?id=%d", x)); code != 404 {
		t.Errorf("uncommitted node %d: status %d, body %s; want 404", x, code, b)
	}
	var vg ViewGraph
	if res := get(t, s, fmt.Sprintf("/api/expand?id=%d", wc), &vg); res.StatusCode != 200 {
		t.Fatalf("expand during the transaction: status %d", res.StatusCode)
	}
	for _, n := range vg.Nodes {
		if n.ID == x {
			t.Errorf("expand shows the uncommitted node %d", x)
		}
	}
	for _, e := range vg.Edges {
		if e.From == x || e.To == x {
			t.Errorf("expand shows the uncommitted edge %+v", e)
		}
	}
	check("during the transaction")
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("after rollback")
}

// viewStore is a fixed 24-node graph: reports describing malware, malware
// connecting to IPs, a chain of tools and an isolated node.
func viewStore() *graph.Store {
	s := graph.New()
	var mal, ips []graph.NodeID
	for i := 0; i < 4; i++ {
		m, _ := s.MergeNode("Malware", fmt.Sprintf("mal-%d", i), map[string]string{"family": fmt.Sprint(i % 2)})
		mal = append(mal, m)
	}
	for i := 0; i < 8; i++ {
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		ips = append(ips, ip)
		s.AddEdge(mal[i%4], "CONNECT", ip, nil)
		s.AddEdge(mal[(i+1)%4], "CONNECT", ip, nil)
	}
	for i := 0; i < 6; i++ {
		r, _ := s.MergeNode("MalwareReport", fmt.Sprintf("r-%d", i), map[string]string{"report_id": fmt.Sprint(i)})
		s.AddEdge(r, "DESCRIBES", mal[i%4], nil)
		s.AddEdge(r, "MENTIONS", ips[i], nil)
	}
	prev := mal[0]
	for i := 0; i < 5; i++ {
		tool, _ := s.MergeNode("Tool", fmt.Sprintf("tool-%d", i), nil)
		s.AddEdge(prev, "USE", tool, nil)
		prev = tool
	}
	s.MergeNode("Domain", "isolated.example", nil)
	return s
}

// TestViewBodiesMatchParent pins the status and the SHA-256 of every
// exploration endpoint's body on viewStore, error bodies included. The
// hashes were taken with the store-backed handlers that preceded
// snapshot-pinned ones: with no writer open, the two must answer alike.
func TestViewBodiesMatchParent(t *testing.T) {
	s := New(viewStore(), search.NewIndex(nil))
	for _, c := range []struct{ path, want string }{
		{"/api/node?id=1", "200 421b36ef71b5ad504810405cf8da1ea002927d7c317f686ea7ee425920a73d0c"},
		{"/api/node?id=5", "200 d97c612c11010ed5d8869e1dce5a9d80e599bbcf810d14e0a2fd0343f5e691e1"},
		{"/api/node?id=13", "200 0327e3bb80bdb5c878817f70a9f57adf4270a95ab44501efa9711ea7a33944f9"},
		{"/api/node?id=24", "200 0b5e4e9d0d5ef17c41ea57ef680c5fc284bd6afb10b4a3f8c572b86845cd818d"},
		{"/api/node?id=99", "404 1814a15b2477cec578d1d8c65d93aa94ffdadf3e69a35f9e7f9a24205e8497c9"},
		{"/api/node?id=abc", "400 b29fc2898fe447d0133ef57bc19acb220035e815196023bee2230757392188e9"},
		{"/api/node", "400 e0b2c759b3b6a5337f0ade6396fac523749373941a11a032aa2a887240d21b8a"},
		{"/api/expand?id=1", "200 699d0774ded950cc8143064217a3af8560e35af77b9568f03207e3f890545090"},
		{"/api/expand?id=1&depth=2", "200 8bffd3eca890c8afe326976d8cf333a70323703ff0bf7f126fe4299a0781a1b6"},
		{"/api/expand?id=13&depth=3&neighbors=2&nodes=7", "200 4bb3408601113782888060868bd27cf9cc9f9b78985c401b47c88a2a749109e3"},
		{"/api/expand?id=24", "200 5d06a8f1aff383912ec1975b6ab0ff9453ee513d219c30bbb88f5b3ec39b8e2d"},
		{"/api/expand?id=99", "404 1814a15b2477cec578d1d8c65d93aa94ffdadf3e69a35f9e7f9a24205e8497c9"},
		{"/api/expand?id=x", "400 de1a5b9ce636e6a2a8bfc993fb59f8ae960b9378229d7aa069920d03a766687e"},
		{"/api/expand?id=1&nodes=1001", "400 a2facd890621b742d5029f838e80e66fc91efd22ac1772532042a81769babb75"},
		{"/api/collapse?id=1&view=1,2,5,6,13,19&anchors=13", "200 1eb737d389d63bfe4bc3992c1a067405c5c11fbf8d0359c401742f9c589db13f"},
		{"/api/collapse?id=1&view=1,5,6&anchors=1", "200 20c05922864a923261d0a181a080f481df6f32e013049937122c3242d1c25fbb"},
		{"/api/collapse?id=2&view=1,2,3,4,5,6,7,8,9,10,11,12&anchors=1,3", "200 3c303df2f59d42d4a9d4a9800f403bffc407fd1d1a7b4f0a169b9cf59903de48"},
		{"/api/collapse?id=1&view=a,b", "400 b003abcc47ef07fa4b83df4a04d34f7d257bd9ea886880a513ead4382c0f3554"},
		{"/api/collapse?id=1&view=1&anchors=z", "400 cd35c2273f5282167871b3e0ff79a2c3a2bf2ab0cdccd1942849c4b12d25b7ca"},
		{"/api/random?n=5&seed=1", "200 53be84bf0683c30f254b5061e34c97d0b08ffdb77e433eb584ff99f90dd28a5c"},
		{"/api/random?n=12&seed=42", "200 be914c046d8b88dfa20d77aaa138528bddbeefd520f9021ddd8817673b30be20"},
		{"/api/random?n=100&seed=7", "200 bb922d942d12bb3c0bf32514763345eb6a8fb5ae795f283e66f54404af73883b"},
		// n=0 answered an empty view until sizes below 1 were refused.
		{"/api/random?n=0", "400 5055d6fd4a037cbd75b5bf997d245f210c81cc8a4424f58dda1d86e7cab0a073"},
		{"/api/random?n=1001", "400 20d50470b200a8566415be752ee2a2bb786da452ae109685318970b266770ed0"},
	} {
		code, b := body(t, s, c.path)
		sum := sha256.Sum256(b)
		if got := fmt.Sprintf("%d %s", code, hex.EncodeToString(sum[:])); got != c.want {
			t.Errorf("%s: got %q, want %q\nbody: %s", c.path, got, c.want, b)
		}
	}
}
