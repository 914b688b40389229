package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
)

// nested returns a request whose params value is depth-2 brackets deep,
// so that the body's total nesting is depth.
func nested(depth int) string {
	return `{"query":"return 1","params":{"x":` + strings.Repeat("[", depth-2) + strings.Repeat("]", depth-2) + `}}`
}

// FuzzCypherRequest holds decodeCypherRequest to what the server did
// before it: json.Unmarshal into stdCypherRequest, then cypher.ToValue on
// each parameter. Both must accept and refuse the same bodies, and yield
// equal fields and Values that share no byte with the body.
func FuzzCypherRequest(f *testing.F) {
	for _, s := range []string{
		`{"params":{"ioc":"10.0.1.3"},"query":"match (n {name:$ioc}) return n"}`,
		`{"query":"match (i {name:$ioc})<-[:CONNECT]-(m:Malware) return m.name","stream":true,"min_seq":42}`,
		`{"query":"UNWIND $batch AS row CREATE (h:Host {name: row.name})","params":{"batch":[{"name":"web-1","ip":"10.0.0.4"},{"name":"web-2","n":-1.5e-3}]}}`,
		` { "Query" : "a" , "QUERY":"b", "explain": false, "Explain": true, "tx": null, "TX": "t" } `,
		`{"params":{"a":1},"params":{"b":[true,false,null,{}]},"PARAMS":{"a":2}}`,
		`{"params":{"a":1},"params":null}`,
		`{"ſtream":true,"min_ſeq":7,"paramſ":{}}`,
		`{"query":"😀 \ud800 \udc00 \ud800A é \"\\\/\b\f\n\r\t"}`,
		"{\"query\":\"bad \xff\xc0\xaf utf8 \xe2\x80 \xed\xa0\x80\"}",
		`{"params":{"n":[0,-0,1E5,1e-400,1.7976931348623157e308]}}`,
		`{"params":{"n":1e400}}`, `{"min_seq":-1}`, `{"min_seq":1.0}`, `{"min_seq":1e3}`, `{"min_seq":18446744073709551616}`,
		`{"query":5}`, `{"explain":"true"}`, `{"params":[1]}`, `{"unknown":{"deep":[1,2,{"x":null}]}}`, `{"":{"":1e400}}`,
		`null`, ` null `, `[]`, `"x"`, ``, `{`, `{"query":"x"} x`, `{"query":"x",}`, `{"a":01}`, `{"a":.5}`, `{"a":1.}`, `{"a":tru}`,
		"{\"query\":\"tab\there\"}", `{"query":"\x"}`, `{"query":"\u12"}`, `{"a":[1,]}`, `{,}`, `{"a" 1}`,
		nested(maxJSONDepth), nested(maxJSONDepth + 1),
		// Map values are sorted fields: the last of a repeated key wins,
		// nested keys are case-sensitive, and empty objects and lists stay
		// empty, not null.
		`{"params":{"batch":[{"ip":"a","seen":1,"ip":"b"},{"x":{"k":1},"x":{"j":[2]}}]}}`,
		`{"params":{"batch":[{"seen":2,"ip":"10.0.0.1"},{"z":1,"a":2,"m":3,"b":{"y":1,"x":2}}]}}`,
		`{"params":{"m":{"Ip":"a","ip":"b","IP":"c","iP":"d","ip":"e"}}}`,
		`{"params":{"batch":[{},[],{"a":{}},{"b":[]},[[],{}]],"e":{},"l":[]}}`,
		`{"params":{"batch":[{"ip":"x"},{"ip":"y","seen":[1,{"z":2,}]}]}}`,
		`{"params":{"m":{"b":1,"a":2,"b":3,"a":{"c":1,"c":[{"d":1,"d":{}}]},"":null,"":0}}}`,
	} {
		f.Add([]byte(s))
	}
	// The stacks are reused from one body to the next, as a pooled
	// request's are.
	var st decodeStacks
	f.Fuzz(func(t *testing.T, data []byte) {
		var std stdCypherRequest
		stdErr := json.Unmarshal(data, &std)
		body := bytes.Clone(data)
		var got cypherRequest
		err := decodeCypherRequest(body, &st, &got)
		for _, v := range st.elems[:cap(st.elems)] {
			if v.Kind != cypher.KindNull {
				t.Fatalf("%q: the element stack keeps a value", data)
			}
		}
		for _, f := range st.fields[:cap(st.fields)] {
			if f.Key != "" || f.Val.Kind != cypher.KindNull {
				t.Fatalf("%q: the field stack keeps a field", data)
			}
		}
		if (err == nil) != (stdErr == nil) {
			t.Fatalf("%q: decode error %v, json.Unmarshal error %v", data, err, stdErr)
		}
		if err != nil {
			return
		}
		want := cypherRequest{Query: std.Query, Explain: std.Explain, Stream: std.Stream, Tx: std.Tx, MinSeq: std.MinSeq}
		if std.Params != nil {
			want.Params = make(map[string]any, len(std.Params))
			for k, v := range std.Params {
				val, err := cypher.ToValue(v)
				if err != nil {
					t.Fatal(err)
				}
				want.Params[k] = val
			}
		}
		for i := range body {
			body[i] = 'X' // the pooled buffer is reused for the response
		}
		// ...and the stacks for the next request.
		if err := decodeCypherRequest([]byte(`{"params":{"b":[{"ip":"x","s":[1]},{}]}}`), &st, new(cypherRequest)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v\nencoding/json %#v", got, want)
		}
	})
}

// TestDeepBodyRefused: nesting is counted as encoding/json counts it — the
// limit itself is accepted, one level more is a 400 with encoding/json's
// message — and a body of millions of brackets is refused, not a stack
// overflow.
func TestDeepBodyRefused(t *testing.T) {
	var req cypherRequest
	if err := decodeCypherRequest([]byte(nested(maxJSONDepth)), new(decodeStacks), &req); err != nil {
		t.Fatalf("%d levels: %v", maxJSONDepth, err)
	}
	s := New(graph.New(), search.NewIndex(nil))
	for _, body := range []string{nested(maxJSONDepth + 1), `{"x":` + strings.Repeat("[", 4<<20), `{"x":` + strings.Repeat(`{"y":`, 2<<20)} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", strings.NewReader(body)))
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "bad request body") {
			t.Errorf("%d-byte body: %d %s", len(body), rec.Code, rec.Body.String())
		}
	}
}

// TestBadBodyWording: a refused body answers the 400 encoding/json's
// decode always produced, byte for byte.
func TestBadBodyWording(t *testing.T) {
	s := New(graph.New(), search.NewIndex(nil))
	for _, body := range []string{``, `{`, `[]`, `{"query":5}`, `{"min_seq":-1}`, `{"query":"x"} y`, `{"params":{"n":1e400}}`} {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]string{"error": "bad request body: " + json.Unmarshal([]byte(body), new(stdCypherRequest)).Error()})
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", strings.NewReader(body)))
		if rec.Code != 400 || rec.Body.String() != want.String() {
			t.Errorf("%q: %d %s, want 400 %s", body, rec.Code, rec.Body.String(), want.String())
		}
	}
}

// looksLikeWriteParent is the classifier the allocation-free scan
// replaced.
func looksLikeWriteParent(q string) bool {
	lq := strings.ToLower(q)
	for _, kw := range []string{"create", "merge", "delete", "set", "unwind"} {
		if strings.Contains(lq, kw) {
			return true
		}
	}
	return false
}

// TestLooksLikeWrite: the scan classifies as strings.ToLower plus
// strings.Contains did — on the golden statements, on mixed case, on
// runes that lowercase to ASCII (U+0130 → i, U+212A → k) and on invalid
// UTF-8. TestPointReadAllocs pins it to no allocation.
func TestLooksLikeWrite(t *testing.T) {
	qs := []string{"", "s", "se", "SET", "sEt", "reset", "UNWIND $b", "unwİnd", "UNWİND", "İ", "ſet",
		"K", "cre\xffate", "\xc4\xb0", "\xe2\xc4\xb0", "unwi\xffnd", "DeLeTe", "DETACH DELETE n", "mErGe", "merg",
		"match (n) return n.offset", "ＳＥＴ", "crÉate", "CREATE"}
	for _, c := range goldenCases {
		qs = append(qs, c.query, strings.ToUpper(c.query))
	}
	alphabet := []string{"c", "r", "e", "a", "t", "m", "g", "d", "l", "s", "u", "n", "w", "i",
		"C", "R", "E", "A", "T", "M", "G", "D", "L", "S", "U", "N", "W", "I",
		"İ", "K", "ſ", "\xff", "\xc4", "\xb0", " ", "é"}
	rng := rand.New(rand.NewSource(3))
	for range 20000 {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		qs = append(qs, b.String())
	}
	for _, q := range qs {
		if got, want := looksLikeWrite(q), looksLikeWriteParent(q); got != want {
			t.Errorf("looksLikeWrite(%q) = %v, want %v", q, got, want)
		}
	}
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); strings.ContainsRune("cmdsu", l) {
			t.Errorf("%U lowercases to %c, the first letter of a keyword: the scan must decode first letters", r, l)
		}
	}
}
