// Package cypher implements the query language of SecurityKG's exploration
// stack: a practical subset of Neo4j's Cypher sufficient for the paper's
// demo scenarios and the threat-hunting workloads. Supported shape:
//
//	MATCH (a:Label {prop: "v"})-[r:RELTYPE]->(b), (c)
//	OPTIONAL MATCH (a)-[:USES*1..3]->(d) WHERE d.name <> $excluded
//	WITH a, collect(d.name) AS tools WHERE a.name CONTAINS $fragment
//	MATCH (a)-[:DROP]->(f)
//	RETURN DISTINCT a, tools, min(f.name), count(*)
//	ORDER BY a.name DESC SKIP 2 LIMIT 10
//
// A WITH's WHERE reads the projected rows, but a conjunct that names only
// items the WITH passes through unchanged — a.name above, on the
// grouping key a — runs where the first MATCH binds a, so the groups it
// rejects are never built (planner.go, step 1).
//
// The write surface mutates the graph through the same statement shape:
//
//	CREATE (m:Malware {name: $ioc})-[:CONNECT {proto: "tcp"}]->(ip:IP {name: "10.0.0.1"})
//	MERGE (t:Tool {name: "mimikatz"})
//	MATCH (m:Malware {name: $ioc}) SET m.triaged = "true"
//	MATCH (m:Malware {name: $ioc}) DETACH DELETE m
//
// CREATE and MERGE both land on the store's exact-(label, name) merge
// rule (Section 2.5: nodes with exactly the same description text are
// one node), so creation is idempotent; returned WriteStats count what
// actually came into existence. Writes are eager — a segment's reads
// fully materialize before its writes run — and RETURN is optional on a
// writing statement. Every mutation is observed by the store's
// mutation hook, which is how the durability layer (internal/storage)
// write-ahead-logs Cypher writes.
//
// "$name" placeholders are query parameters, usable wherever a literal
// is (inline property maps, WHERE operands, projections). They are
// resolved when the statement is executed, so one parsed-and-planned
// statement serves every binding and values are never spliced into
// query text.
//
// Variable-length patterns ("-[:T*m..n]->") use reachability semantics:
// an endpoint matches when its shortest distance from the start along
// edges of the given type/direction lies in [m, n], and each endpoint is
// bound once per input row (bounded BFS with a visited set), not once per
// path. collect() returns a canonically ordered list so results are
// deterministic. Identifier comparison is case-insensitive for keywords,
// case-sensitive for labels, relation types, and property values.
package cypher

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokLBrace
	tokRBrace
	tokColon
	tokComma
	tokDot
	tokDotDot // .. (variable-length hop range)
	tokDash
	tokArrowRight // ->
	tokArrowLeft  // <-
	tokEq
	tokNeq
	tokLt
	tokGt
	tokLe
	tokGe
	tokStar
	tokParam // $name placeholder; token text is the bare name
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == '[':
			l.emit(tokLBracket, "[")
		case c == ']':
			l.emit(tokRBracket, "]")
		case c == '{':
			l.emit(tokLBrace, "{")
		case c == '}':
			l.emit(tokRBrace, "}")
		case c == ':':
			l.emit(tokColon, ":")
		case c == ',':
			l.emit(tokComma, ",")
		case c == '.':
			if strings.HasPrefix(l.src[l.pos:], "..") {
				l.emitN(tokDotDot, "..", 2)
			} else {
				l.emit(tokDot, ".")
			}
		case c == '*':
			l.emit(tokStar, "*")
		case c == '-':
			if strings.HasPrefix(l.src[l.pos:], "->") {
				l.emitN(tokArrowRight, "->", 2)
			} else {
				l.emit(tokDash, "-")
			}
		case c == '<':
			switch {
			case strings.HasPrefix(l.src[l.pos:], "<>"):
				l.emitN(tokNeq, "<>", 2)
			case strings.HasPrefix(l.src[l.pos:], "<="):
				l.emitN(tokLe, "<=", 2)
			case strings.HasPrefix(l.src[l.pos:], "<-"):
				l.emitN(tokArrowLeft, "<-", 2)
			default:
				l.emit(tokLt, "<")
			}
		case c == '>':
			if strings.HasPrefix(l.src[l.pos:], ">=") {
				l.emitN(tokGe, ">=", 2)
			} else {
				l.emit(tokGt, ">")
			}
		case c == '=':
			l.emit(tokEq, "=")
		case c == '!':
			if strings.HasPrefix(l.src[l.pos:], "!=") {
				l.emitN(tokNeq, "!=", 2)
			} else {
				return nil, fmt.Errorf("cypher: unexpected '!' at %d", l.pos)
			}
		case c == '"' || c == '\'':
			s, err := l.lexString(c)
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{tokString, s, l.pos})
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			// A fractional part needs a digit after the dot, so "1..3"
			// lexes as NUMBER DOTDOT NUMBER, not one malformed number.
			if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
				l.pos++
				for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
					l.pos++
				}
			}
			l.toks = append(l.toks, token{tokNumber, l.src[start:l.pos], start})
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		case c == '$':
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			if l.pos == start+1 {
				return nil, fmt.Errorf("cypher: '$' must be followed by a parameter name at %d", start)
			}
			l.toks = append(l.toks, token{tokParam, l.src[start+1 : l.pos], start})
		case c == '`':
			// Backquoted identifier (allows special characters).
			end := strings.IndexByte(l.src[l.pos+1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("cypher: unterminated backquote at %d", l.pos)
			}
			l.toks = append(l.toks, token{tokIdent, l.src[l.pos+1 : l.pos+1+end], l.pos})
			l.pos += end + 2
		default:
			return nil, fmt.Errorf("cypher: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, t string) { l.toks = append(l.toks, token{k, t, l.pos}); l.pos++ }
func (l *lexer) emitN(k tokKind, t string, n int) {
	l.toks = append(l.toks, token{k, t, l.pos})
	l.pos += n
}

func (l *lexer) lexString(quote byte) (string, error) {
	var b strings.Builder
	i := l.pos + 1
	for i < len(l.src) {
		c := l.src[i]
		if c == '\\' && i+1 < len(l.src) {
			next := l.src[i+1]
			switch next {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"', '\'':
				b.WriteByte(next)
			default:
				b.WriteByte(next)
			}
			i += 2
			continue
		}
		if c == quote {
			l.pos = i + 1
			return b.String(), nil
		}
		b.WriteByte(c)
		i++
	}
	return "", fmt.Errorf("cypher: unterminated string at %d", l.pos)
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
