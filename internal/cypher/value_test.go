package cypher

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"securitykg/internal/graph"
)

// fmtString is Value.String as it was written with fmt and strings.Join,
// before Append rendered composite values in place.
func fmtString(v Value) string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindString:
		return v.Str
	case KindNumber:
		if v.Num == float64(int64(v.Num)) {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindNode:
		return fmt.Sprintf("(:%s {name: %q})", v.Node.Type, v.Node.Name)
	case KindEdge:
		return fmt.Sprintf("[:%s]", v.Edge.Type)
	case KindList:
		parts := make([]string, len(v.List))
		for i, e := range v.List {
			parts[i] = fmtString(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindMap:
		fs := slices.Clone(v.Map)
		sort.Slice(fs, func(i, j int) bool { return fs[i].Key < fs[j].Key })
		parts := make([]string, 0, len(fs))
		for _, f := range fs {
			parts = append(parts, f.Key+": "+fmtString(f.Val))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return "?"
}

// TestValueStringMatchesFmt: String, and Append after a prefix, render
// random nested values — names needing Go quoting, invalid UTF-8, every
// kind — exactly as the fmt-based rendering did.
func TestValueStringMatchesFmt(t *testing.T) {
	pieces := []string{"a", "Z9", " ", `"`, `\`, "<&>", "\x00", "\n", "\x7f", "é", "漢", "\xff", "\xe2\x80", "{name: x}"}
	rng := rand.New(rand.NewSource(5))
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	var gen func(depth int) Value
	gen = func(depth int) Value {
		switch k := rng.Intn(9); {
		case k == 0:
			return NullValue()
		case k == 1:
			return NumberValue([]float64{0, -3, 42, 1e21, 0.5, -1e-9, 123456789012}[rng.Intn(7)])
		case k == 2:
			return BoolValue(rng.Intn(2) == 0)
		case k == 3:
			return NodeValue(&graph.Node{Type: str(), Name: str()})
		case k == 4:
			return EdgeValue(&graph.Edge{Type: str()})
		case k == 5 && depth < 3:
			vs := make([]Value, rng.Intn(4))
			for i := range vs {
				vs[i] = gen(depth + 1)
			}
			return ListValue(vs)
		case k == 6 && depth < 3:
			m := map[string]Value{}
			for n := rng.Intn(4); n > 0; n-- {
				m[str()] = gen(depth + 1)
			}
			return MapValue(m)
		case k == 7:
			return Value{Kind: ValueKind(99)}
		}
		return StringValue(str())
	}
	for range 5000 {
		v := gen(0)
		want := fmtString(v)
		if got := v.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(v.Append([]byte("prefix:"))); got != "prefix:"+want {
			t.Fatalf("Append = %q, want %q", got, "prefix:"+want)
		}
	}
}

// TestValueSize pins the size of a value: every binding slot, list
// element and batch-row field pays it, so a new field is a decision.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 96 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 96", got)
	}
	if got := unsafe.Sizeof(Field{}); got != 112 {
		t.Errorf("unsafe.Sizeof(Field{}) = %d, want 112", got)
	}
}

// TestFieldsValue: a map value's fields come out sorted by key, and of
// fields with the same key the last one stays.
func TestFieldsValue(t *testing.T) {
	fs := []Field{
		{"seen", NumberValue(1)},
		{"ip", StringValue("a")},
		{"Ip", StringValue("b")},
		{"seen", NumberValue(2)},
		{"ip", StringValue("c")},
		{"seen", NumberValue(3)},
	}
	v := FieldsValue(fs)
	want := []Field{{"Ip", StringValue("b")}, {"ip", StringValue("c")}, {"seen", NumberValue(3)}}
	if v.Kind != KindMap || !reflect.DeepEqual(v.Map, want) {
		t.Fatalf("FieldsValue = %v, want %v", v.Map, want)
	}
	if got := v.String(); got != "{Ip: b, ip: c, seen: 3}" {
		t.Fatalf("String() = %q", got)
	}
	// Past insertion-sort sizes only a stable sort keeps the last of
	// each repeated key.
	fs = fs[:0]
	last := map[string]float64{}
	for i := range 64 {
		k := strconv.Itoa(i * 7 % 10)
		fs = append(fs, Field{k, NumberValue(float64(i))})
		last[k] = float64(i)
	}
	v = FieldsValue(fs)
	if len(v.Map) != len(last) {
		t.Fatalf("FieldsValue kept %d of %d keys", len(v.Map), len(last))
	}
	for i, f := range v.Map {
		if f.Val.Num != last[f.Key] || i > 0 && v.Map[i-1].Key >= f.Key {
			t.Fatalf("FieldsValue = %v", v.Map)
		}
	}
	m := MapValue(map[string]Value{"b": NumberValue(2), "a": NumberValue(1)})
	if got := m.String(); got != "{a: 1, b: 2}" {
		t.Fatalf("MapValue String() = %q", got)
	}
	if o := FieldsValue([]Field{{"b", NumberValue(2)}, {"a", NumberValue(1)}}); !m.Equal(&o) {
		t.Fatal("equal maps built in different orders compare unequal")
	}
}

// TestNegativeZeroKeys: −0 Equals 0, so DISTINCT, grouping and hash-join
// buckets, which all key a value through appendKey, must put the two
// together — on the engine and on the reference evaluator alike.
func TestNegativeZeroKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	zero, neg := NumberValue(0), NumberValue(negZero)
	if !zero.Equal(&neg) || string(zero.appendKey(nil)) != string(neg.appendKey(nil)) {
		t.Errorf("0 and -0: Equal %v, keys %q and %q", zero.Equal(&neg), zero.appendKey(nil), neg.appendKey(nil))
	}
	s := graph.New()
	for _, xs := range [][]any{{0.0, negZero}, {negZero, 0.0}} {
		args := map[string]any{"xs": xs}
		for _, tc := range []struct {
			q    string
			want []string
		}{
			{`unwind $xs as x return distinct x`, []string{"0"}},
			{`unwind $xs as x return x, count(*)`, []string{"0|2"}},
			{`unwind $xs as x with distinct x where x = 0 return count(*)`, []string{"1"}},
			{`unwind $xs as x with x where x = 0 return count(*)`, []string{"2"}},
		} {
			planned, err := NewEngine(s, DefaultOptions()).Query(tc.q, args)
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			ref, err := reference{s}.Query(tc.q, args)
			if err != nil {
				t.Fatalf("reference %s: %v", tc.q, err)
			}
			if got, rgot := renderRows(planned), renderRows(ref); !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(rgot, tc.want) {
				t.Errorf("%s over %v: engine %v, reference %v, want %v", tc.q, xs, got, rgot, tc.want)
			}
		}
	}
}
