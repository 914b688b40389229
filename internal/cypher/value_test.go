package cypher

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

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
		parts := make([]string, 0, len(v.Map))
		for _, k := range v.sortedMapKeys() {
			parts = append(parts, k+": "+fmtString(v.Map[k]))
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
