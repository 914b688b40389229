package graph

import (
	"encoding/json"
	"slices"
	"strings"

	"securitykg/internal/jsonenc"
)

// Attr is one attribute of a node or edge.
type Attr struct {
	Key string
	Val string
}

// Attrs is the attribute set of a node or edge: a slice sorted by key,
// keys unique. One small array per record replaces one Go map per
// record (some 370 B for the one or two entries a CTI entity carries);
// lookups scan it, which at that size beats hashing. Range over it for
// key order; it marshals to, and unmarshals from, the JSON object a
// map[string]string would produce, byte for byte.
type Attrs []Attr

// Lookup returns the value under key and whether the key is present.
func (a Attrs) Lookup(key string) (string, bool) {
	for i := range a {
		if a[i].Key == key {
			return a[i].Val, true
		}
	}
	return "", false
}

// Get returns the value under key, "" when absent.
func (a Attrs) Get(key string) string {
	v, _ := a.Lookup(key)
	return v
}

// newAttrs builds the sorted set from a caller's map (nil when empty).
func newAttrs(m map[string]string) Attrs {
	if len(m) == 0 {
		return nil
	}
	a := make(Attrs, 0, len(m))
	for k, v := range m {
		a = append(a, Attr{Key: k, Val: v})
	}
	slices.SortFunc(a, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
	return a
}

// with returns a copy of a in which key maps to val. a itself — usually
// part of a published, immutable record — is never written.
func (a Attrs) with(key, val string) Attrs {
	i, found := slices.BinarySearchFunc(a, key, func(e Attr, k string) int { return strings.Compare(e.Key, k) })
	if found {
		out := slices.Clone(a)
		out[i].Val = val
		return out
	}
	out := make(Attrs, len(a)+1)
	copy(out, a[:i])
	out[i] = Attr{Key: key, Val: val}
	copy(out[i+1:], a[i:])
	return out
}

// MarshalJSON writes the object encoding/json writes for the equivalent
// map: keys in byte order, strings escaped as json.Marshal escapes them.
func (a Attrs) MarshalJSON() ([]byte, error) {
	return a.AppendJSON(make([]byte, 0, 64)), nil
}

// AppendJSON appends the object MarshalJSON returns.
func (a Attrs) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for i, kv := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(jsonenc.AppendString(dst, kv.Key), ':')
		dst = jsonenc.AppendString(dst, kv.Val)
	}
	return append(dst, '}')
}

// UnmarshalJSON reads a JSON object of strings (or null).
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*a = newAttrs(m)
	return nil
}
