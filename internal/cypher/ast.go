package cypher

// Query is the parsed form of a supported Cypher statement: a chain of
// WITH-delimited parts, the last of which carries the RETURN projection.
type Query struct {
	Explain bool        // EXPLAIN prefix: render the plan instead of running it
	Analyze bool        // EXPLAIN ANALYZE: execute fully, render the profiled plan
	Parts   []QueryPart // WITH-chained segments; the final one is the RETURN
	// Params lists the $parameter names the statement references (sorted,
	// deduplicated). Every listed name must be bound at execution time.
	Params []string
	// TxOp marks a transaction-control statement (BEGIN / COMMIT /
	// ROLLBACK, each with an optional TRANSACTION keyword). Such a
	// statement has no parts; it is routed by a transaction session
	// (Engine.Begin / the HTTP tx token), never planned or executed.
	TxOp TxOp
}

// TxOp classifies a transaction-control statement.
type TxOp int

const (
	TxNone     TxOp = iota // a regular query
	TxBegin                // BEGIN [TRANSACTION]
	TxCommit               // COMMIT [TRANSACTION]
	TxRollback             // ROLLBACK [TRANSACTION]
)

// QueryPart is one pipeline segment: its reading clauses (MATCH /
// OPTIONAL MATCH), then its writing clauses (CREATE / MERGE, SET,
// DELETE — applied in that order, once per matched row, after the reads
// fully materialize so writes can never feed their own match), followed
// by a projection (WITH for intermediate parts, RETURN for the final
// one — RETURN is optional when the final part writes). ORDER BY /
// SKIP / LIMIT are only accepted on the final part; Where is the
// post-WITH filter on projected values.
type QueryPart struct {
	Unwind   *UnwindClause // UNWIND <expr> AS <var>, before the part's matches
	Matches  []MatchClause
	Creates  []CreateClause
	Sets     []SetItem
	Delete   *DeleteClause
	Distinct bool
	Items    []ReturnItem
	Where    Expr // WITH ... WHERE <expr>: filters projected rows (nil on the final part)
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	Skip     int // 0 when absent
}

// UnwindClause is "UNWIND <expr> AS <alias>": the expression (typically a
// $parameter holding a batch of row maps) is evaluated once per incoming
// row and each list element is bound to Alias in turn. Null unwinds to
// zero rows; a non-list value unwinds to itself (one row).
type UnwindClause struct {
	Expr  Expr
	Alias string
}

// HasWrites reports whether the part carries any writing clause.
func (p *QueryPart) HasWrites() bool {
	return len(p.Creates) > 0 || len(p.Sets) > 0 || p.Delete != nil
}

// CreateClause is one CREATE or MERGE clause. Both map onto the store's
// exact-(type, name) merge semantics — the paper's storage-time merge
// rule means a "create" of an already-present node augments it instead
// of duplicating — so the two clauses differ only in intent; created
// counts reflect what actually came into existence.
type CreateClause struct {
	Merge    bool
	Patterns []Pattern
}

// SetItem is one "SET var.prop = expr" assignment, applied per row.
type SetItem struct {
	Var  string
	Prop string
	Val  Expr
}

// DeleteClause is "DELETE var, ..." or "DETACH DELETE var, ...". Plain
// DELETE refuses nodes that still have relationships; DETACH removes
// them along with the node. Null bindings (from OPTIONAL MATCH) are
// skipped, as are entities already deleted by an earlier row.
type DeleteClause struct {
	Detach bool
	Vars   []string
}

// HasWrites reports whether any part of the query mutates the graph.
func (q *Query) HasWrites() bool {
	for i := range q.Parts {
		if q.Parts[i].HasWrites() {
			return true
		}
	}
	return false
}

// MatchClause is one MATCH or OPTIONAL MATCH with its own WHERE. An
// optional clause null-pads the variables it fails to bind instead of
// dropping the row.
type MatchClause struct {
	Optional bool
	Patterns []Pattern // comma-separated patterns
	Where    Expr      // nil when absent
}

// Pattern is one linear node-edge-node-... chain.
type Pattern struct {
	Nodes []NodePattern
	Edges []EdgePattern // len(Edges) == len(Nodes)-1
}

// NodePattern is "(var:Label {prop: value, ...})"; all parts optional.
// Property values are literals (Props), $parameters resolved at bind
// time (ParamProps, keyed by property name, valued by parameter name),
// or — inside CREATE / MERGE patterns only — arbitrary expressions over
// the row's bindings (ExprProps, e.g. "{name: row.name}").
type NodePattern struct {
	Var        string
	Label      string
	Props      map[string]Value
	ParamProps map[string]string
	ExprProps  map[string]Expr
}

// EdgeDir is the direction of an edge pattern.
type EdgeDir int

const (
	DirRight EdgeDir = iota // -[]->
	DirLeft                 // <-[]-
	DirAny                  // -[]-
)

// EdgePattern is "-[var:TYPE]->" and friends. A variable-length pattern
// "-[:TYPE*m..n]->" sets VarLen plus MinHops/MaxHops; plain single-hop
// patterns have both at 1 with VarLen false. MaxHops < 0 means unbounded
// ("*m.."). Variable-length patterns cannot bind an edge variable.
// Props/ParamProps are edge attributes, accepted only inside CREATE /
// MERGE patterns (the parser rejects them in reading clauses).
type EdgePattern struct {
	Var        string
	Type       string
	Dir        EdgeDir
	VarLen     bool // any "*" range, including "*1": reachability semantics
	MinHops    int  // 1 for plain edges
	MaxHops    int  // 1 for plain edges; -1 = unbounded
	Props      map[string]Value
	ParamProps map[string]string
	ExprProps  map[string]Expr
}

// VarLength reports whether the pattern uses variable-length (BFS
// reachability) semantics. "*1" is var-length even though it spans
// exactly one hop: it binds each distinct neighbor once, where a plain
// edge binds once per connecting edge.
func (ep EdgePattern) VarLength() bool { return ep.VarLen }

// ReturnItem is one projection: an expression plus an optional alias.
type ReturnItem struct {
	Expr  Expr
	Alias string
}

// OrderKey orders results by a returned column (matched by alias/text) or,
// for non-aggregate non-DISTINCT queries, by any expression evaluable
// against the match bindings.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Expr is an evaluable expression node.
type Expr interface{ exprNode() }

// VarExpr references a pattern variable (node or edge binding). slot is
// the planner's stamp (frame.go): the variable's frame slot plus one, 0
// on a parsed expression no plan has stamped.
type VarExpr struct {
	Name string
	slot int
}

// PropExpr references a property of a bound variable: v.prop.
type PropExpr struct {
	Var  string
	Prop string
	slot int // as VarExpr.slot
}

// LitExpr is a literal value.
type LitExpr struct{ Val Value }

// ListExpr is a list literal: [e1, e2, ...]. Primarily the inline form
// of an UNWIND input; usable anywhere an expression is.
type ListExpr struct{ Elems []Expr }

// ParamExpr references a $parameter supplied at bind time. The same
// parsed query (and its cached plan) serves every binding, which is why
// parameterized statements hit the plan cache where literal-substituted
// query strings miss.
type ParamExpr struct{ Name string }

// CmpExpr compares two sub-expressions.
type CmpExpr struct {
	Op    string // "=", "<>", "<", ">", "<=", ">=", "contains", "starts", "ends", "in"
	Left  Expr
	Right Expr
}

// BoolExpr combines expressions with and/or.
type BoolExpr struct {
	Op    string // "and" | "or"
	Left  Expr
	Right Expr
}

// NotExpr negates an expression.
type NotExpr struct{ Inner Expr }

// FuncExpr is a function call: count(*), count(x), min(x), max(x),
// sum(x), collect(x), type(r), id(n), labels(n), lower(x), upper(x).
type FuncExpr struct {
	Name string
	Arg  Expr // nil for count(*)
	Star bool
}

func (VarExpr) exprNode()   {}
func (PropExpr) exprNode()  {}
func (LitExpr) exprNode()   {}
func (ParamExpr) exprNode() {}
func (CmpExpr) exprNode()   {}
func (BoolExpr) exprNode()  {}
func (NotExpr) exprNode()   {}
func (FuncExpr) exprNode()  {}
func (ListExpr) exprNode()  {}
