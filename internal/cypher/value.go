package cypher

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"securitykg/internal/graph"
)

// ValueKind discriminates runtime values. It is one byte, so that it
// shares a word with Value.Bool.
type ValueKind int8

const (
	KindNull ValueKind = iota
	KindString
	KindNumber
	KindBool
	KindNode
	KindEdge
	KindList
	KindMap
)

// Value is one runtime value produced during query evaluation.
type Value struct {
	Kind ValueKind
	Bool bool
	Str  string
	Num  float64
	Node *graph.Node
	Edge *graph.Edge
	List []Value
	Map  []Field // sorted by key, keys unique
}

// Field is one entry of a map value.
type Field struct {
	Key string
	Val Value
}

// NullValue returns the null value.
func NullValue() Value { return Value{Kind: KindNull} }

// StringValue wraps a string.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }

// NumberValue wraps a float64.
func NumberValue(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// BoolValue wraps a bool.
func BoolValue(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// NodeValue wraps a graph node.
func NodeValue(n *graph.Node) Value { return Value{Kind: KindNode, Node: n} }

// EdgeValue wraps a graph edge.
func EdgeValue(e *graph.Edge) Value { return Value{Kind: KindEdge, Edge: e} }

// ListValue wraps a list of values (the collect() aggregate result).
func ListValue(vs []Value) Value { return Value{Kind: KindList, List: vs} }

// MapValue wraps a string-keyed map — the shape of one UNWIND batch row —
// as its entries in a field slice sorted by key.
func MapValue(m map[string]Value) Value {
	fs := make([]Field, 0, len(m))
	for k, v := range m {
		fs = append(fs, Field{k, v})
	}
	return FieldsValue(fs)
}

// FieldsValue wraps fields as a map value. It sorts fs by key in place
// and keeps, of fields with the same key, the last — json.Unmarshal's
// rule for a repeated object key — so the value's Map may be a shorter
// prefix of fs.
func FieldsValue(fs []Field) Value {
	slices.SortStableFunc(fs, func(a, b Field) int { return strings.Compare(a.Key, b.Key) })
	n := 0
	for i := range fs {
		if i+1 < len(fs) && fs[i+1].Key == fs[i].Key {
			continue // a later field has the same key
		}
		fs[n] = fs[i]
		n++
	}
	return Value{Kind: KindMap, Map: fs[:n]}
}

// ToValue converts a plain Go value into a query Value; it is how
// parameter bindings supplied as map[string]any enter the engine.
// Supported: nil, string, bool, every built-in numeric type, Value
// itself, and []any and map[string]any (recursively).
func ToValue(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return NullValue(), nil
	case Value:
		return x, nil
	case string:
		return StringValue(x), nil
	case bool:
		return BoolValue(x), nil
	case float64:
		return NumberValue(x), nil
	case float32:
		return NumberValue(float64(x)), nil
	case int:
		return NumberValue(float64(x)), nil
	case int8:
		return NumberValue(float64(x)), nil
	case int16:
		return NumberValue(float64(x)), nil
	case int32:
		return NumberValue(float64(x)), nil
	case int64:
		return NumberValue(float64(x)), nil
	case uint:
		return NumberValue(float64(x)), nil
	case uint8:
		return NumberValue(float64(x)), nil
	case uint16:
		return NumberValue(float64(x)), nil
	case uint32:
		return NumberValue(float64(x)), nil
	case uint64:
		return NumberValue(float64(x)), nil
	case []any:
		vs := make([]Value, len(x))
		for i, e := range x {
			ev, err := ToValue(e)
			if err != nil {
				return Value{}, err
			}
			vs[i] = ev
		}
		return ListValue(vs), nil
	case map[string]any:
		fs := make([]Field, 0, len(x))
		for k, e := range x {
			ev, err := ToValue(e)
			if err != nil {
				return Value{}, err
			}
			fs = append(fs, Field{k, ev})
		}
		return FieldsValue(fs), nil
	}
	return Value{}, fmt.Errorf("cypher: unsupported parameter type %T", v)
}

// valueBytes is the byte-budget charge for one value: a coarse estimate
// of its in-memory footprint (struct header plus owned string bytes,
// lists recursively). Node/edge values charge only the header — the
// store owns the pointed-to data.
func valueBytes(v *Value) int {
	n := 48 + len(v.Str)
	for i := range v.List {
		n += valueBytes(&v.List[i])
	}
	for i := range v.Map {
		n += len(v.Map[i].Key) + valueBytes(&v.Map[i].Val)
	}
	return n
}

// rowBytes charges a projected row: slice header plus its values.
func rowBytes(row []Value) int {
	n := 24
	for i := range row {
		n += valueBytes(&row[i])
	}
	return n
}

// String renders a value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindNull, KindNumber, KindBool:
		return v.scalarString()
	}
	return string(v.Append(make([]byte, 0, 64)))
}

func (v Value) scalarString() string {
	switch v.Kind {
	case KindNumber:
		if v.Num == float64(int64(v.Num)) {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	}
	return "null"
}

// Append appends the text String renders. A node, edge, list or map is
// rendered straight into dst, without building a string.
func (v *Value) Append(dst []byte) []byte {
	switch v.Kind {
	case KindString:
		return append(dst, v.Str...)
	case KindNull, KindNumber, KindBool:
		return append(dst, v.scalarString()...)
	case KindNode:
		dst = append(append(dst, "(:"...), v.Node.Type...)
		return append(strconv.AppendQuote(append(dst, " {name: "...), v.Node.Name), "})"...)
	case KindEdge:
		return append(append(append(dst, "[:"...), v.Edge.Type...), ']')
	case KindList:
		dst = append(dst, '[')
		for i := range v.List {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = v.List[i].Append(dst)
		}
		return append(dst, ']')
	case KindMap:
		dst = append(dst, '{')
		for i := range v.Map {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			f := &v.Map[i]
			dst = f.Val.Append(append(append(dst, f.Key...), ": "...))
		}
		return append(dst, '}')
	}
	return append(dst, '?')
}

// Truthy reports the boolean interpretation used by WHERE.
func (v *Value) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindNull:
		return false
	case KindString:
		return v.Str != ""
	case KindNumber:
		return v.Num != 0
	case KindList:
		return len(v.List) > 0
	case KindMap:
		return len(v.Map) > 0
	}
	return true
}

// Equal compares two values with Cypher-like semantics (null equals
// nothing, numbers compare numerically, nodes/edges by identity).
func (v *Value) Equal(o *Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindNumber:
		return v.Num == o.Num
	case KindBool:
		return v.Bool == o.Bool
	case KindNode:
		return v.Node.ID == o.Node.ID
	case KindEdge:
		return v.Edge.ID == o.Edge.ID
	case KindList:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(&o.List[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.Map) != len(o.Map) {
			return false
		}
		for i := range v.Map {
			if v.Map[i].Key != o.Map[i].Key || !v.Map[i].Val.Equal(&o.Map[i].Val) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare returns -1/0/+1 for orderable values; ok=false when the pair is
// not comparable (mixed kinds, nodes, nulls).
func (v *Value) Compare(o *Value) (int, bool) {
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case KindString:
		switch {
		case v.Str < o.Str:
			return -1, true
		case v.Str > o.Str:
			return 1, true
		}
		return 0, true
	case KindNumber:
		switch {
		case v.Num < o.Num:
			return -1, true
		case v.Num > o.Num:
			return 1, true
		}
		return 0, true
	case KindBool:
		a, b := 0, 0
		if v.Bool {
			a = 1
		}
		if o.Bool {
			b = 1
		}
		return a - b, true
	}
	return 0, false
}

// appendKey appends the key identifying the value for DISTINCT, grouping
// and hash-join buckets. Keys of different kinds never collide (each
// carries a kind prefix), equal values always do: −0 keys as 0, which
// Equal says it is.
func (v *Value) appendKey(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "\x00null"...)
	case KindString:
		return append(append(dst, "s:"...), v.Str...)
	case KindNumber:
		n := v.Num
		if n == 0 {
			n = 0 // −0 == 0
		}
		return strconv.AppendFloat(append(dst, "n:"...), n, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(append(dst, "b:"...), v.Bool)
	case KindNode:
		return strconv.AppendInt(append(dst, "N:"...), int64(v.Node.ID), 10)
	case KindEdge:
		return strconv.AppendInt(append(dst, "E:"...), int64(v.Edge.ID), 10)
	case KindList:
		dst = append(dst, "L:"...)
		for i := range v.List {
			if i > 0 {
				dst = append(dst, 1)
			}
			dst = v.List[i].appendKey(dst)
		}
		return dst
	case KindMap:
		dst = append(dst, "M:"...)
		for i := range v.Map {
			if i > 0 {
				dst = append(dst, 1)
			}
			f := &v.Map[i]
			dst = f.Val.appendKey(append(append(dst, f.Key...), 2))
		}
		return dst
	}
	return append(dst, '?')
}

// order is the one total order over values: ORDER BY (both engines and
// the top-k window), min()/max() and collect()'s canonical ordering all
// use it. Within a kind it is the natural order — numbers numerically,
// strings lexically, nodes and edges by ID, lists lexicographically;
// values of different kinds order by kind; null sorts after everything,
// so an ascending ORDER BY puts nulls last and a descending one puts
// them first, as openCypher does.
func (v *Value) order(o *Value) int {
	if v.Kind != o.Kind {
		switch {
		case v.Kind == KindNull:
			return 1
		case o.Kind == KindNull:
			return -1
		}
		return cmp.Compare(v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindString:
		return strings.Compare(v.Str, o.Str)
	case KindNumber:
		return cmp.Compare(v.Num, o.Num)
	case KindBool:
		switch {
		case v.Bool == o.Bool:
			return 0
		case o.Bool:
			return -1
		}
		return 1
	case KindNode:
		return cmp.Compare(v.Node.ID, o.Node.ID)
	case KindEdge:
		return cmp.Compare(v.Edge.ID, o.Edge.ID)
	case KindList:
		for i := range v.List {
			if i >= len(o.List) {
				return 1
			}
			if c := v.List[i].order(&o.List[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(v.List), len(o.List))
	case KindMap:
		// Maps order by their canonical grouping key: deterministic, and
		// maps are never hot in ORDER BY paths.
		return bytes.Compare(v.appendKey(nil), o.appendKey(nil))
	}
	return 0
}
