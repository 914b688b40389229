package htmlparse

import "strings"

// NodeType classifies a DOM node.
type NodeType int

const (
	ElementNode NodeType = iota
	TextNode
	CommentNode
	DocumentNode
)

// Node is one node of the lenient DOM tree.
type Node struct {
	Type     NodeType
	Tag      string // element tag name (lowercase), empty for text
	Text     string // text content for TextNode/CommentNode
	Attrs    map[string]string
	Parent   *Node
	Children []*Node
}

// autoCloseBefore maps a tag to the set of open tags it implicitly closes
// (lenient parsing of real-world HTML: <li> closes an open <li>, etc.).
var autoCloseBefore = map[string]map[string]bool{
	"li":     {"li": true},
	"tr":     {"tr": true, "td": true, "th": true},
	"td":     {"td": true, "th": true},
	"th":     {"td": true, "th": true},
	"p":      {"p": true},
	"option": {"option": true},
	"dt":     {"dt": true, "dd": true},
	"dd":     {"dt": true, "dd": true},
}

// Parse builds a DOM tree from HTML. It never fails: unclosed tags are
// closed at end of input and stray close tags are ignored.
func Parse(html string) *Node {
	doc := &Node{Type: DocumentNode, Tag: "#document"}
	stack := []*Node{doc}
	// A scan of the stack for an end tag's element pops what it passes,
	// unless the tag is stray. From the first stray end tag on, open
	// counts the elements on the stack by tag, so later stray end tags
	// are dropped without a scan and the parse stays linear. Well-formed
	// pages never build it, which keeps their parse as cheap as a plain
	// stack.
	var open map[string]int
	top := func() *Node { return stack[len(stack)-1] }
	pop := func() {
		if open != nil {
			open[top().Tag]--
		}
		stack = stack[:len(stack)-1]
	}
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
					pop()
				}
			}
			n := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Parent: top()}
			top().Children = append(top().Children, n)
			if tok.Type == TokenStartTag {
				stack = append(stack, n)
				if open != nil {
					open[n.Tag]++
				}
			}
		case TokenEndTag:
			// Pop to the matching open tag if one exists; ignore otherwise.
			if open == nil {
				k := len(stack) - 1
				for k >= 1 && stack[k].Tag != tok.Data {
					k--
				}
				if k >= 1 {
					stack = stack[:k]
					break
				}
				open = map[string]int{}
				for _, n := range stack[1:] {
					open[n.Tag]++
				}
			} else if open[tok.Data] > 0 {
				for top().Tag != tok.Data {
					pop()
				}
				pop()
			}
		case TokenDoctype:
			// ignored
		}
	}
	return doc
}

// Attr returns the attribute value and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	if n.Attrs == nil {
		return "", false
	}
	v, ok := n.Attrs[strings.ToLower(name)]
	return v, ok
}

// hasClass reports whether the element's class list contains c.
func (n *Node) hasClass(c string) bool {
	v, _ := n.Attr("class")
	for f := range strings.FieldsSeq(v) {
		if f == c {
			return true
		}
	}
	return false
}

// InnerText returns the concatenated text of the subtree, with whitespace
// collapsed and block elements separated by newlines.
func (n *Node) InnerText() string {
	var b strings.Builder
	n.writeText(&b)
	return strings.TrimSpace(collapseSpace(b.String()))
}

// HasText reports whether the subtree holds a text node outside script
// and style, which is whether InnerText is non-empty: Parse keeps only
// text that is not all whitespace. It builds no string.
func (n *Node) HasText() bool {
	switch n.Type {
	case TextNode:
		return true
	case ElementNode:
		if skipTextTags[n.Tag] {
			return false
		}
	}
	for _, c := range n.Children {
		if c.HasText() {
			return true
		}
	}
	return false
}

var blockTags = map[string]bool{
	"p": true, "div": true, "li": true, "tr": true, "br": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"table": true, "ul": true, "ol": true, "section": true, "article": true,
	"header": true, "footer": true, "pre": true, "blockquote": true,
}

var skipTextTags = map[string]bool{"script": true, "style": true}

func (n *Node) writeText(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		b.WriteString(n.Text)
	case ElementNode:
		if skipTextTags[n.Tag] {
			return
		}
		if blockTags[n.Tag] {
			b.WriteByte('\n')
		}
		for _, c := range n.Children {
			c.writeText(b)
		}
		if blockTags[n.Tag] {
			b.WriteByte('\n')
		}
	default:
		for _, c := range n.Children {
			c.writeText(b)
		}
	}
}

func collapseSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := false
	lastNL := false
	for _, r := range s {
		switch r {
		case '\n':
			if !lastNL {
				b.WriteByte('\n')
			}
			lastNL = true
			lastSpace = true
		case ' ', '\t', '\r':
			if !lastSpace {
				b.WriteByte(' ')
			}
			lastSpace = true
		default:
			b.WriteRune(r)
			lastSpace = false
			lastNL = false
		}
	}
	return b.String()
}

// Walk visits every node in the subtree in document order. Returning false
// from fn prunes the node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}
