package htmlparse

// The selector engine and Parse this package had before FindAll became
// one walk, kept verbatim as the oracle of the one-walk FindAll and the
// counting Parse. referenceFindAll walks a node once per way it matches,
// then drops repeats; referenceParse scans the open stack on every end
// tag. Both are quadratic on some pages (internal/pipeline's
// TestLinearTime); only their output is compared.

import "strings"

type refSelector struct {
	steps []refStep
}

type refStep struct {
	simple refSimple
	child  bool // true: must be a direct child of the previous step's match
}

type refSimple struct {
	tag     string
	id      string
	classes []string
	attrs   [][2]string // name, value; value "" with presence-only flag below
	attrHas []string
}

// refCompile parses a selector string. Invalid syntax yields a selector that
// matches nothing (lenient, like the rest of the package).
func refCompile(sel string) refSelector {
	var s refSelector
	fields := tokenizerefSelector(sel)
	child := false
	for _, f := range fields {
		if f == ">" {
			child = true
			continue
		}
		s.steps = append(s.steps, refStep{simple: refParseSimple(f), child: child})
		child = false
	}
	return s
}

func tokenizerefSelector(sel string) []string {
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

func refParseSimple(s string) refSimple {
	var out refSimple
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
				return refSimple{tag: "\x00nomatch"}
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
			return refSimple{tag: "\x00nomatch"}
		}
	}
	return out
}

func (ss refSimple) matches(n *Node) bool {
	if n.Type != ElementNode {
		return false
	}
	if ss.tag != "" && ss.tag != "*" && n.Tag != ss.tag {
		return false
	}
	if ss.id != "" && refID(n) != ss.id {
		return false
	}
	for _, c := range ss.classes {
		if !refHasClass(n, c) {
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

// referenceFindAll is the parent's FindAll: walk, then keep each match's
// first occurrence.
func referenceFindAll(n *Node, selector string) []*Node {
	sel := refCompile(selector)
	if len(sel.steps) == 0 {
		return nil
	}
	var out []*Node
	refWalkMatches(n, sel.steps, func(m *Node) bool {
		out = append(out, m)
		return true
	})
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

// refWalkMatches calls yield with each match of steps below n, a node once
// per way it matches, until yield returns false. It returns false when
// yield stopped the walk.
func refWalkMatches(n *Node, steps []refStep, yield func(*Node) bool) bool {
	step := steps[0]
	for _, c := range n.Children {
		if step.simple.matches(c) {
			if len(steps) == 1 {
				if !yield(c) {
					return false
				}
			} else if !refWalkMatches(c, steps[1:], yield) {
				return false
			}
		}
		// A child step matches children only; a descendant step searches
		// the whole subtree.
		if !step.child && !refWalkMatches(c, steps, yield) {
			return false
		}
	}
	return true
}

func refID(n *Node) string { v, _ := n.Attr("id"); return v }

func refHasClass(n *Node, c string) bool {
	v, ok := n.Attr("class")
	if !ok {
		return false
	}
	for _, f := range strings.Fields(v) {
		if f == c {
			return true
		}
	}
	return false
}

// referenceParse builds a DOM tree from HTML. It never fails: unclosed tags are
// closed at end of input and stray close tags are ignored.
func referenceParse(html string) *Node {
	doc := &Node{Type: DocumentNode, Tag: "#document"}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }
	for _, tok := range Tokenize(html) {
		switch tok.Type {
		case TokenText:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			n := &Node{Type: TextNode, Text: tok.Data, Parent: top()}
			top().Children = append(top().Children, n)
		case TokenComment:
			n := &Node{Type: CommentNode, Text: tok.Data, Parent: top()}
			top().Children = append(top().Children, n)
		case TokenStartTag, TokenSelfClosing:
			if closers, ok := autoCloseBefore[tok.Data]; ok {
				for len(stack) > 1 && closers[top().Tag] {
					stack = stack[:len(stack)-1]
				}
			}
			n := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Parent: top()}
			top().Children = append(top().Children, n)
			if tok.Type == TokenStartTag {
				stack = append(stack, n)
			}
		case TokenEndTag:
			// Pop to the matching open tag if one exists; ignore otherwise.
			for k := len(stack) - 1; k >= 1; k-- {
				if stack[k].Tag == tok.Data {
					stack = stack[:k]
					break
				}
			}
		case TokenDoctype:
			// ignored
		}
	}
	return doc
}
