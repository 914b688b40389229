package htmlparse

import "strings"

// Selector matches DOM elements. The supported grammar is the practical
// subset source parsers need:
//
//	tag            element name
//	#id            id attribute
//	.class         class list member
//	[attr]         attribute present
//	[attr=value]   attribute equals value
//	tag.class#id[attr=v]   conjunction on one element
//	"a b"          descendant combinator
//	"a > b"        child combinator
type Selector struct {
	steps []selStep
}

type selStep struct {
	simple selSimple
	child  bool // true: must be a direct child of the previous step's match
}

type selSimple struct {
	tag     string
	id      string
	classes []string
	attrs   [][2]string // name, value; value "" with presence-only flag below
	attrHas []string
}

// Compile parses a selector string. Invalid syntax yields a selector that
// matches nothing (lenient, like the rest of the package).
func Compile(sel string) Selector {
	var s Selector
	fields := tokenizeSelector(sel)
	child := false
	for _, f := range fields {
		if f == ">" {
			child = true
			continue
		}
		s.steps = append(s.steps, selStep{simple: parseSimple(f), child: child})
		child = false
	}
	return s
}

func tokenizeSelector(sel string) []string {
	sel = strings.TrimSpace(sel)
	var out []string
	cur := strings.Builder{}
	depth := 0
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range sel {
		switch {
		case r == '[':
			depth++
			cur.WriteRune(r)
		case r == ']':
			depth--
			cur.WriteRune(r)
		case (r == ' ' || r == '\t') && depth == 0:
			flush()
		case r == '>' && depth == 0:
			flush()
			out = append(out, ">")
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

func parseSimple(s string) selSimple {
	var out selSimple
	i := 0
	readName := func() string {
		st := i
		for i < len(s) && s[i] != '.' && s[i] != '#' && s[i] != '[' {
			i++
		}
		return s[st:i]
	}
	if i < len(s) && s[i] != '.' && s[i] != '#' && s[i] != '[' {
		out.tag = strings.ToLower(readName())
	}
	for i < len(s) {
		switch s[i] {
		case '.':
			i++
			out.classes = append(out.classes, readName())
		case '#':
			i++
			out.id = readName()
		case '[':
			end := strings.IndexByte(s[i:], ']')
			if end < 0 {
				return selSimple{tag: "\x00nomatch"}
			}
			body := s[i+1 : i+end]
			i += end + 1
			if eq := strings.IndexByte(body, '='); eq >= 0 {
				val := strings.Trim(body[eq+1:], `"'`)
				out.attrs = append(out.attrs, [2]string{strings.ToLower(body[:eq]), val})
			} else {
				out.attrHas = append(out.attrHas, strings.ToLower(body))
			}
		default:
			return selSimple{tag: "\x00nomatch"}
		}
	}
	return out
}

func (ss selSimple) matches(n *Node) bool {
	if n.Type != ElementNode {
		return false
	}
	if ss.tag != "" && ss.tag != "*" && n.Tag != ss.tag {
		return false
	}
	if ss.id != "" && n.ID() != ss.id {
		return false
	}
	for _, c := range ss.classes {
		if !n.HasClass(c) {
			return false
		}
	}
	for _, av := range ss.attrs {
		v, ok := n.Attr(av[0])
		if !ok || v != av[1] {
			return false
		}
	}
	for _, a := range ss.attrHas {
		if _, ok := n.Attr(a); !ok {
			return false
		}
	}
	return true
}

// FindAll returns all elements in the subtree matching the selector string,
// in document order.
func (n *Node) FindAll(selector string) []*Node {
	sel := Compile(selector)
	if len(sel.steps) == 0 {
		return nil
	}
	var out []*Node
	n.walkMatches(sel.steps, func(m *Node) bool {
		out = append(out, m)
		return true
	})
	// Nested intermediate matches can yield duplicates; keep first occurrence.
	seen := make(map[*Node]bool, len(out))
	dedup := out[:0]
	for _, m := range out {
		if !seen[m] {
			seen[m] = true
			dedup = append(dedup, m)
		}
	}
	return dedup
}

// Find returns the first match or nil: FindAll's first, found without
// walking the rest of the tree.
func (n *Node) Find(selector string) *Node {
	sel := Compile(selector)
	if len(sel.steps) == 0 {
		return nil
	}
	var first *Node
	n.walkMatches(sel.steps, func(m *Node) bool {
		first = m
		return false
	})
	return first
}

// walkMatches calls yield with each match of steps below n, a node once
// per way it matches, until yield returns false. It returns false when
// yield stopped the walk.
func (n *Node) walkMatches(steps []selStep, yield func(*Node) bool) bool {
	step := steps[0]
	for _, c := range n.Children {
		if step.simple.matches(c) {
			if len(steps) == 1 {
				if !yield(c) {
					return false
				}
			} else if !c.walkMatches(steps[1:], yield) {
				return false
			}
		}
		// A child step matches children only; a descendant step searches
		// the whole subtree.
		if !step.child && !c.walkMatches(steps, yield) {
			return false
		}
	}
	return true
}
