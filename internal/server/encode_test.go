package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
)

// stringPieces are the fragments test strings are drawn from: plain
// ASCII, everything encoding/json escapes, multi-byte runes, U+2028/9,
// U+FFFD itself and invalid UTF-8.
var stringPieces = []string{
	"a", "Z", "0", " ", "ip-10.0.0.1", `"`, `\`, "<", ">", "&", "\x00", "\x01", "\x1f", "\n", "\r", "\t", "\b", "\f", "\x7f",
	"é", "漢字", string(rune(0x1F600)), string(rune(0x2028)), string(rune(0x2029)), string(utf8.RuneError),
	"\xff", "\xc0\xaf", "\xe2\x80", "\xed\xa0\x80",
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return b.String()
}

// randFloat returns a finite float64 of any magnitude and shape.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return float64(rng.Intn(2001) - 1000)
	case 1:
		return rng.NormFloat64()
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 3:
		return []float64{0, math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 1e20, math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(8)]
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randAttrs(rng *rand.Rand) graph.Attrs {
	var a graph.Attrs
	for n := rng.Intn(3); n > 0; n-- {
		a = append(a, graph.Attr{Key: randString(rng), Val: randString(rng)})
	}
	return a // unsorted and possibly duplicated: the encoders must not care
}

func randNode(rng *rand.Rand) *graph.Node {
	return &graph.Node{ID: graph.NodeID(rng.Int63n(1 << 40)), Type: randString(rng), Name: randString(rng), Attrs: randAttrs(rng)}
}

func randEdge(rng *rand.Rand) *graph.Edge {
	return &graph.Edge{ID: graph.EdgeID(rng.Int63n(1 << 40)), Type: randString(rng),
		From: graph.NodeID(rng.Int63n(1 << 40)), To: graph.NodeID(rng.Int63n(1 << 40)), Attrs: randAttrs(rng)}
}

func randValue(rng *rand.Rand, depth int) cypher.Value {
	switch k := rng.Intn(9); {
	case k == 0:
		return cypher.NullValue()
	case k == 1:
		return cypher.NumberValue(randFloat(rng))
	case k == 2:
		return cypher.BoolValue(rng.Intn(2) == 0)
	case k == 3:
		return cypher.NodeValue(randNode(rng))
	case k == 4:
		return cypher.EdgeValue(randEdge(rng))
	case k == 5 && depth < 3:
		vs := make([]cypher.Value, rng.Intn(4))
		for i := range vs {
			vs[i] = randValue(rng, depth+1)
		}
		return cypher.ListValue(vs)
	case k == 6 && depth < 3:
		m := map[string]cypher.Value{}
		for n := rng.Intn(4); n > 0; n-- {
			m[randString(rng)] = randValue(rng, depth+1)
		}
		return cypher.MapValue(m)
	}
	return cypher.StringValue(randString(rng))
}

// randStatement returns a statement whose rows are the values bound to
// $rows: an UNWIND of them under one to three random column names, and,
// one time in three, a CREATE per row so that the statement writes.
func randStatement(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("unwind $rows as r ")
	if rng.Intn(3) == 0 {
		b.WriteString(`create (:Probe {name: "p"}) `)
	}
	b.WriteString("return ")
	for i := rng.Intn(3); i >= 0; i-- {
		b.WriteString("r as `c" + randString(rng) + "`")
		if i > 0 {
			b.WriteString(", ")
		}
	}
	return b.String()
}

// encodeLikeParent is how every hot body was written before the
// appenders: json.NewEncoder(w).Encode.
func encodeLikeParent(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// parentResultBody is the value writeCypherResult encoded, built as it
// built it.
func parentResultBody(res *cypher.Result, seq uint64) any {
	out := struct {
		Columns []string           `json:"columns"`
		Rows    [][]string         `json:"rows"`
		Writes  *cypher.WriteStats `json:"writes,omitempty"`
		Seq     uint64             `json:"seq,omitempty"`
	}{Columns: res.Columns, Writes: res.Writes, Seq: seq}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

// TestEncodersMatchEncodingJSON is the encoder differential: on random
// results — floats, unicode, control characters, invalid UTF-8, nested
// lists and maps, nulls, nodes and edges, writes and seq set or not — the
// materialized /api/cypher body, the stream's trailers, /api/search hits
// and laid-out views are byte for byte what encoding/json wrote from the
// values the handlers used to encode, and a streamed result's rows decode
// to the materialized body's. The materialized body drains the
// statement's cursor; its oracle is the same statement run on a twin
// store through Engine.Query.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3000; round++ {
		vals := make([]cypher.Value, rng.Intn(6))
		for i := range vals {
			vals[i] = randValue(rng, 0)
		}
		q, params := randStatement(rng), map[string]any{"rows": cypher.ListValue(vals)}
		opts := cypher.DefaultOptions()
		res, err := cypher.NewEngine(graph.New(), opts).Query(q, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows, err := cypher.NewEngine(graph.New(), opts).QueryRows(q, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var seq uint64
		if rng.Intn(2) == 0 {
			seq = uint64(rng.Int63()) << rng.Intn(2)
		}
		seqFn := func() uint64 { return seq }
		b, n, err := appendRows(nil, rows, seqFn)
		if err != nil || n != len(res.Rows) {
			t.Fatalf("%s: %d rows, error %v; Engine.Query returned %d", q, n, err, len(res.Rows))
		}
		body := string(b)
		if want := encodeLikeParent(t, parentResultBody(res, seq)); body != want {
			t.Fatalf("round %d: %s: materialized body\n got: %q\nwant: %q", round, q, body, want)
		}
		var materialized struct{ Rows [][]string }
		if err := json.Unmarshal(b, &materialized); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			seqFn = nil
		}
		if rng.Intn(2) == 0 {
			res.Writes = &cypher.WriteStats{NodesCreated: rng.Intn(1000), EdgesCreated: rng.Intn(3), PropsSet: rng.Intn(1e6), NodesDeleted: rng.Intn(2), EdgesDeleted: rng.Intn(5)}
		}

		var stream bytes.Buffer
		nw := &ndjsonWriter{w: &stream}
		nw.header(res.Columns)
		for _, row := range res.Rows {
			nw.row(row)
		}
		msg := randString(rng)
		if rng.Intn(5) == 0 {
			nw.fail(msg)
		} else {
			nw.done(len(res.Rows), res.Writes, seqFn)
		}
		lines := bufio.NewScanner(&stream)
		lines.Buffer(nil, 1<<20)
		var streamed [][]string
		var last string
		for lines.Scan() {
			var line struct{ Row []string }
			last = lines.Text()
			if err := json.Unmarshal(lines.Bytes(), &line); err != nil {
				t.Fatalf("round %d: streamed line %q: %v", round, last, err)
			}
			if line.Row != nil {
				streamed = append(streamed, line.Row)
			}
		}
		if !reflect.DeepEqual(streamed, materialized.Rows) {
			t.Fatalf("round %d: streamed rows %q, materialized %q", round, streamed, materialized.Rows)
		}
		trailer := map[string]any{"done": len(res.Rows)}
		if res.Writes != nil {
			trailer["writes"] = res.Writes
			if seqFn != nil {
				trailer["seq"] = seq
			}
		}
		if strings.HasPrefix(last, `{"error"`) {
			trailer = map[string]any{"error": msg}
		}
		if want, _ := json.Marshal(trailer); last != string(want) {
			t.Fatalf("round %d: trailer\n got: %q\nwant: %q", round, last, want)
		}

		type hitOut struct {
			ID    string  `json:"id"`
			Score float64 `json:"score"`
		}
		hits := make([]search.Hit, rng.Intn(4))
		out := make([]hitOut, 0, len(hits))
		for i := range hits {
			hits[i] = search.Hit{ID: randString(rng), Score: randFloat(rng)}
			out = append(out, hitOut{ID: hits[i].ID, Score: hits[i].Score})
		}
		if got, want := string(appendHits(nil, hits)), encodeLikeParent(t, out); got != want {
			t.Fatalf("round %d: hits\n got: %q\nwant: %q", round, got, want)
		}

		vg := &ViewGraph{}
		if rng.Intn(8) > 0 {
			vg.Nodes = make([]ViewNode, rng.Intn(4))
			for i := range vg.Nodes {
				vg.Nodes[i] = ViewNode{Node: randNode(rng), X: randFloat(rng), Y: randFloat(rng), Color: colorFor(randString(rng))}
			}
		}
		if rng.Intn(8) > 0 {
			vg.Edges = make([]*graph.Edge, rng.Intn(4))
			for i := range vg.Edges {
				vg.Edges[i] = randEdge(rng)
			}
		}
		if got, want := string(appendView(nil, vg)), encodeLikeParent(t, vg); got != want {
			t.Fatalf("round %d: view\n got: %q\nwant: %q", round, got, want)
		}
	}
}
