package htmlparse

import "strings"

// A selector is one or more steps separated by whitespace, each a
// descendant of the one before it. A step is a tag name, one or more
// .class names, or a tag name followed by .class names, all required of
// one element: "a.next-page" is an <a> of class next-page, and
// "table.meta td.key" is a <td> of class key anywhere below a <table> of
// class meta. Names are compared as written; Parse lowercases tag names.

// FindAll returns the elements below n that match selector, in document
// order.
func (n *Node) FindAll(selector string) []*Node {
	var out []*Node
	n.walkMatches(strings.Fields(selector), 0, func(m *Node) bool {
		out = append(out, m)
		return true
	})
	return out
}

// Find returns FindAll's first, or nil, without walking the rest of the
// tree.
func (n *Node) Find(selector string) *Node {
	var first *Node
	n.walkMatches(strings.Fields(selector), 0, func(m *Node) bool {
		first = m
		return false
	})
	return first
}

// walkMatches calls yield with each element below n that matches steps,
// in document order, until yield returns false; n's ancestors match
// steps[:done] in order. A child matching steps[done] takes the next
// step for its subtree, or is a match when that step is the last.
// Taking each step at its first matching ancestor is exact for a chain
// of descendant steps, so each node is visited once and yielded at most
// once. It returns false when yield stopped the walk.
func (n *Node) walkMatches(steps []string, done int, yield func(*Node) bool) bool {
	last := len(steps) - 1
	if last < 0 {
		return true
	}
	for _, c := range n.Children {
		d := done
		if matchesStep(c, steps[done]) {
			if done == last {
				if !yield(c) {
					return false
				}
			} else {
				d++
			}
		}
		if !c.walkMatches(steps, d, yield) {
			return false
		}
	}
	return true
}

// matchesStep reports whether n is an element with the step's tag name,
// if it names one, and every one of its classes.
func matchesStep(n *Node, step string) bool {
	tag, classes, more := strings.Cut(step, ".")
	if n.Type != ElementNode || tag != "" && n.Tag != tag {
		return false
	}
	for more {
		var c string
		c, classes, more = strings.Cut(classes, ".")
		if !n.hasClass(c) {
			return false
		}
	}
	return true
}
