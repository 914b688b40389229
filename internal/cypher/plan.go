package cypher

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file defines the logical/physical plan the planner emits and the
// executor runs. A plan is a chain of pipeline segments (one per WITH
// boundary plus the final RETURN); each segment is a linear left-deep
// pipeline of binding-producing stages (scans and expansions, each with
// pushed-down filters) followed by its projection. The final segment also
// carries the row-level operators (distinct, sort, skip/limit). EXPLAIN
// renders this structure.

// AccessKind is how a ScanStage locates its candidate nodes.
type AccessKind int

const (
	AccessAll       AccessKind = iota // full node scan
	AccessLabel                       // label index scan
	AccessName                        // name index seek (any label)
	AccessLabelName                   // exact (label, name) point seek
	AccessAttr                        // attribute index seek
	AccessLabelAttr                   // composite (label, attribute) index seek
	AccessBound                       // variable already bound by an earlier stage
)

// isSeek reports whether the access path looks its candidates up by a
// name or an indexed attribute value.
func (k AccessKind) isSeek() bool {
	return k == AccessName || k == AccessLabelName || k == AccessAttr || k == AccessLabelAttr
}

func (k AccessKind) String() string {
	switch k {
	case AccessAll:
		return "AllNodesScan"
	case AccessLabel:
		return "LabelScan"
	case AccessName:
		return "IndexSeek(name)"
	case AccessLabelName:
		return "IndexSeek(label+name)"
	case AccessAttr:
		return "IndexSeek(attr)"
	case AccessLabelAttr:
		return "IndexSeek(label+attr)"
	case AccessBound:
		return "BoundRef"
	}
	return "?"
}

// Stage is one binding-producing pipeline operator.
type Stage interface {
	// newIter wires the stage into the Volcano pipeline; input is nil for
	// the first stage.
	newIter(ec *execCtx, input iter) iter
	describe() string
	filters() []Expr
}

// ScanStage produces bindings for one pattern node, either from an index
// access path or by re-checking an already-bound variable (AccessBound,
// used when a later pattern starts at a variable an earlier one bound).
// Seek keys are literals (Name/AttrVal) or $parameter names
// (NameParam/AttrParam) resolved per execution, which is what lets one
// cached plan serve every parameter binding.
type ScanStage struct {
	Node      NodePattern
	Access    AccessKind
	Label     string // resolved label for the access path: Node.Label, or one inferred from a type-equality predicate
	Name      string // name literal for name seeks
	NameParam string // $parameter supplying the name at bind time
	AttrKey   string // attribute key/value for attr seeks
	AttrVal   string
	AttrParam string  // $parameter supplying the attribute value at bind time
	Filters   []Expr  // pushed-down predicates evaluable once Node.Var is bound
	Est       float64 // the access path's candidate count; 0 for AccessBound

	slot int // frame slot of Node.Var
}

func (s *ScanStage) filters() []Expr { return s.Filters }

func (s *ScanStage) describe() string {
	var b strings.Builder
	b.WriteString(s.Access.String())
	b.WriteString(" ")
	b.WriteString(patternNodeText(s.Node))
	if s.Label != "" && s.Node.Label == "" {
		fmt.Fprintf(&b, " label=%q", s.Label)
	}
	switch s.Access {
	case AccessName, AccessLabelName:
		if s.NameParam != "" {
			fmt.Fprintf(&b, " name=$%s", s.NameParam)
		} else {
			fmt.Fprintf(&b, " name=%q", s.Name)
		}
	case AccessAttr, AccessLabelAttr:
		if s.AttrParam != "" {
			fmt.Fprintf(&b, " %s=$%s", s.AttrKey, s.AttrParam)
		} else {
			fmt.Fprintf(&b, " %s=%q", s.AttrKey, s.AttrVal)
		}
	}
	return b.String()
}

// edgeText renders the edge pattern between its endpoints for EXPLAIN,
// honoring the chain traversal direction (Reverse flips the arrow).
func edgeText(ep EdgePattern, reverse bool) string {
	left, right := "-", "-"
	switch {
	case ep.Dir == DirRight && !reverse, ep.Dir == DirLeft && reverse:
		right = "->"
	case ep.Dir == DirLeft && !reverse, ep.Dir == DirRight && reverse:
		left = "<-"
	}
	edge := ""
	if displayVar(ep.Var) != "" || ep.Type != "" || ep.VarLength() {
		edge = "[" + displayVar(ep.Var)
		if ep.Type != "" {
			edge += ":" + ep.Type
		}
		if ep.VarLength() {
			edge += "*" + hopRangeText(ep)
		}
		edge += "]"
	}
	return left + edge + right
}

func hopRangeText(ep EdgePattern) string {
	if ep.MinHops == ep.MaxHops {
		return strconv.Itoa(ep.MinHops)
	}
	if ep.MaxHops < 0 {
		if ep.MinHops == 1 {
			return ""
		}
		return fmt.Sprintf("%d..", ep.MinHops)
	}
	return fmt.Sprintf("%d..%d", ep.MinHops, ep.MaxHops)
}

// ExpandStage traverses one edge pattern from a bound variable to its
// neighbor, binding the edge and target variables (or checking them when
// already bound).
type ExpandStage struct {
	From    string // bound node variable the expansion starts at
	Edge    EdgePattern
	To      NodePattern
	Reverse bool // chain traversed right-to-left: edge direction flips
	Filters []Expr

	// Frame slots of From, Edge.Var and To.Var; edgeSlot is -1 for a
	// synthetic edge name, which nothing can read and so is never bound.
	fromSlot, edgeSlot, toSlot int
}

func (s *ExpandStage) filters() []Expr { return s.Filters }

func (s *ExpandStage) describe() string {
	return fmt.Sprintf("Expand (%s)%s%s", s.From, edgeText(s.Edge, s.Reverse), patternNodeText(s.To))
}

// VarExpandStage traverses a variable-length edge pattern from a bound
// variable: a bounded BFS that binds the target variable once per
// distinct endpoint whose shortest distance lies in [MinHops, MaxHops]
// (reachability semantics, not path enumeration).
type VarExpandStage struct {
	From    string
	Edge    EdgePattern // VarLength() is true
	To      NodePattern
	Reverse bool
	Filters []Expr

	fromSlot, toSlot int // frame slots of From and To.Var
}

func (s *VarExpandStage) filters() []Expr { return s.Filters }

func (s *VarExpandStage) describe() string {
	return fmt.Sprintf("VarExpand (%s)%s%s", s.From, edgeText(s.Edge, s.Reverse), patternNodeText(s.To))
}

// HashJoinStage joins the incoming row stream against an independently
// planned pattern chain on equality keys, replacing the O(n·m)
// nested re-expand the planner used to emit for chains linked only by a
// cross-chain equality predicate (a.x = b.y). The side with the smaller
// entry count is hashed: with BuildInput false the chain
// sub-pipeline runs once and its rows are hashed by BuildKeys, then each
// incoming row probes by ProbeKeys; with BuildInput true the incoming
// rows are drained and hashed instead and the chain streams as the
// probe. Rows whose key evaluates to null never match (Cypher equality
// semantics), exactly as the predicate filter would have decided.
type HashJoinStage struct {
	Build      []Stage  // standalone sub-pipeline for the joined chain
	BuildVars  []string // variables the chain introduces (installed on match)
	ProbeKeys  []Expr   // evaluated against the incoming row
	BuildKeys  []Expr   // evaluated against the chain row, aligned with ProbeKeys
	BuildInput bool     // hash the incoming side instead (its entry count is the smaller)
	Filters    []Expr

	buildSlots []int // frame slots of BuildVars
}

func (s *HashJoinStage) filters() []Expr { return s.Filters }

func (s *HashJoinStage) describe() string {
	keys := make([]string, len(s.ProbeKeys))
	for i := range s.ProbeKeys {
		p, b := exprString(s.ProbeKeys[i]), exprString(s.BuildKeys[i])
		if p == b {
			keys[i] = p
		} else {
			keys[i] = p + " = " + b
		}
	}
	side := "chain"
	if s.BuildInput {
		side = "input"
	}
	return fmt.Sprintf("HashJoin on %s (build=%s)", strings.Join(keys, ", "), side)
}

// BiHop is one hop of a collapsed chain segment: its edge pattern, the
// node pattern the hop lands on, and whether the chain is being walked
// right-to-left at that hop.
type BiHop struct {
	Edge    EdgePattern
	To      NodePattern
	Reverse bool
}

// BiExpandStage traverses a run of ≥3 single-hop edges whose interior
// nodes and edges are anonymous, using counted frontier expansion
// instead of path enumeration: each BFS level carries a walk count per
// node, so multiplicities collapse level by level instead of being
// enumerated path by path. When the far endpoint is already bound the
// stage expands from both endpoints and intersects the counts at the
// middle level (meet-in-the-middle); otherwise it streams the final
// level's nodes in ID order, emitting each row once per walk. The
// multiset of rows is identical to the equivalent Expand chain — only
// the enumeration strategy changes.
type BiExpandStage struct {
	From    string
	Hops    []BiHop
	Filters []Expr

	fromSlot, toSlot int // frame slots of From and the last hop's To.Var
}

func (s *BiExpandStage) toPattern() NodePattern { return s.Hops[len(s.Hops)-1].To }

func (s *BiExpandStage) filters() []Expr { return s.Filters }

func (s *BiExpandStage) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BiExpand (%s)", displayVar(s.From))
	for _, h := range s.Hops {
		b.WriteString(edgeText(h.Edge, h.Reverse))
		b.WriteString(patternNodeText(h.To))
	}
	fmt.Fprintf(&b, " [%d hops, meet@%d]", len(s.Hops), len(s.Hops)/2)
	return b.String()
}

// OptionalStage runs an inner pipeline for every input row; when the
// inner pipeline produces no extension, the row passes through once with
// the inner pipeline's variables bound to null instead of being dropped.
type OptionalStage struct {
	Inner []Stage  // sub-pipeline, anchored on already-bound variables
	Vars  []string // variables the inner pipeline introduces (null-padded)

	slots []int // frame slots of Vars
}

func (s *OptionalStage) filters() []Expr { return nil }

func (s *OptionalStage) describe() string {
	vars := make([]string, 0, len(s.Vars))
	for _, v := range s.Vars {
		if displayVar(v) != "" {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	return fmt.Sprintf("Optional [introduces %s]", strings.Join(vars, ", "))
}

// UnwindStage evaluates its expression once per input row (once total
// when it roots the pipeline) and emits one row per element of the
// resulting list with the element bound to Alias. Null unwinds to zero
// rows; a non-list value unwinds to itself (one row). It is the entry
// point of the batch-ingest pipeline: "UNWIND $batch AS row CREATE ..."
// streams each batch row into the eager MutationStage.
type UnwindStage struct {
	Expr  Expr
	Alias string

	slot int // frame slot of Alias
}

func (s *UnwindStage) filters() []Expr { return nil }

func (s *UnwindStage) describe() string {
	return fmt.Sprintf("Unwind %s AS %s", exprString(s.Expr), s.Alias)
}

// MutationStage applies a part's writing clauses. It is an eager
// barrier: on first pull it drains and buffers its entire input (the
// part's reading clauses), applies CREATE/MERGE, SET and DELETE once
// per buffered row — so writes can never feed the very match that
// produced them — then re-streams the rows, with created entities bound
// to their pattern variables.
type MutationStage struct {
	Writes *writeClauses
}

func (s *MutationStage) filters() []Expr { return nil }

func (s *MutationStage) describe() string {
	var parts []string
	for _, cc := range s.Writes.creates {
		kw := "Create"
		if cc.Merge {
			kw = "Merge"
		}
		parts = append(parts, fmt.Sprintf("%s %d pattern(s)", kw, len(cc.Patterns)))
	}
	if n := len(s.Writes.sets); n > 0 {
		parts = append(parts, fmt.Sprintf("Set %d prop(s)", n))
	}
	if dc := s.Writes.del; dc != nil {
		kw := "Delete"
		if dc.Detach {
			kw = "DetachDelete"
		}
		parts = append(parts, fmt.Sprintf("%s %s", kw, strings.Join(dc.Vars, ", ")))
	}
	return "Mutate (eager) [" + strings.Join(parts, "; ") + "]"
}

// PlanSegment is one WITH-delimited pipeline segment: stages producing
// bindings, then a projection. Non-final segments feed their projected
// rows to the next segment as fresh bindings; the final segment carries
// the row-level result operators.
type PlanSegment struct {
	Stages       []Stage
	Items        []ReturnItem
	Distinct     bool
	HasAggregate bool
	Filter       Expr // WITH ... WHERE on projected values (nil on final)
	OrderBy      []OrderKey
	Skip         int
	Limit        int // -1 when absent

	// Resolved once at plan time (all plan-invariant), so repeated
	// executions of a cached plan skip the work: the projected column
	// names, the ORDER BY strategy (nil without ORDER BY), the segment's
	// slot table (frame.go) and, on a non-final segment, the slot each
	// projected item takes in the next segment's frames.
	cols     []string
	op       *orderPlan
	tab      *slotTable
	outSlots []int
}

// Plan is the executable query plan: a chain of pipeline segments.
// Params carries the $parameter names the plan's query references, so a
// cache hit can validate bindings without re-parsing the text.
// HasWrites marks plans with mutation stages: they refuse to run on a
// read-only engine and report WriteStats.
type Plan struct {
	Segments  []*PlanSegment
	Params    []string
	HasWrites bool
}

// String renders the plan for EXPLAIN: numbered pipeline stages with
// their pushed-down filters (optional sub-pipelines indented), WITH
// boundaries between segments, then the row-level operators in order.
func (p *Plan) String() string { return p.render(nil) }

// render is String plus optional ANALYZE annotations: with a non-nil
// profile, every stage line gains observed cardinality (act), rows-in,
// invocation count and inclusive wall time (plus, on a scan or seek, a
// drift! marker when act diverges from est past the feedback
// threshold), the projection lines gain [in/out/time], and the Sort line
// gains [in/time]. The
// un-profiled rendering is byte-identical to the pre-ANALYZE EXPLAIN
// output — the golden plan suite pins that.
func (p *Plan) render(prof *planProf) string {
	var b strings.Builder
	if prof != nil {
		b.WriteString("plan (streaming, greedy-ordered, analyzed):\n")
	} else {
		b.WriteString("plan (streaming, greedy-ordered):\n")
	}
	n := 0
	for si, seg := range p.Segments {
		for _, st := range seg.Stages {
			n++
			fmt.Fprintf(&b, "  %2d. %s%s\n", n, stageLine(st, 60), prof.stageSuffix(st))
			for _, f := range st.filters() {
				fmt.Fprintf(&b, "      where %s\n", exprString(f))
			}
			var inner []Stage
			switch is := st.(type) {
			case *OptionalStage:
				inner = is.Inner
			case *HashJoinStage:
				inner = is.Build
			}
			for ii, ist := range inner {
				fmt.Fprintf(&b, "      %2d.%d %s%s\n", n, ii+1, stageLine(ist, 55), prof.stageSuffix(ist))
				for _, f := range ist.filters() {
					fmt.Fprintf(&b, "           where %s\n", exprString(f))
				}
			}
		}
		var cols []string
		for _, it := range seg.Items {
			cols = append(cols, exprString(it.Expr))
		}
		final := si == len(p.Segments)-1
		op := "With"
		if final {
			op = "Project"
			if seg.HasAggregate {
				op = "Aggregate"
			}
		} else if seg.HasAggregate {
			op = "With (aggregating)"
		}
		colsText := strings.Join(cols, ", ")
		if colsText == "" {
			colsText = "(write counts only)"
		}
		fmt.Fprintf(&b, "   => %s %s%s\n", op, colsText, prof.opSuffix(seg))
		if seg.Distinct && !seg.HasAggregate {
			b.WriteString("   => Distinct\n")
		}
		if seg.Filter != nil {
			fmt.Fprintf(&b, "      where %s\n", exprString(seg.Filter))
		}
		if final {
			if len(seg.OrderBy) > 0 {
				var keys []string
				for _, k := range seg.OrderBy {
					t := exprString(k.Expr)
					if k.Desc {
						t += " desc"
					}
					keys = append(keys, t)
				}
				fmt.Fprintf(&b, "   => Sort %s%s\n", strings.Join(keys, ", "), prof.sortSuffix(seg))
			}
			if seg.Skip > 0 {
				fmt.Fprintf(&b, "   => Skip %d\n", seg.Skip)
			}
			if seg.Limit >= 0 {
				fmt.Fprintf(&b, "   => Limit %d (early cutoff)\n", seg.Limit)
			}
		}
	}
	return b.String()
}

// scanEst returns a stage's planner estimate: the candidate count of a
// scan or seek. No other stage carries one.
func scanEst(st Stage) (float64, bool) {
	sc, ok := st.(*ScanStage)
	if !ok || sc.Access == AccessBound {
		return 0, false
	}
	return sc.Est, true
}

// stageLine is a stage's EXPLAIN text: a scan or seek pads its
// description to width and appends its estimate; any other stage prints
// its description alone.
func stageLine(st Stage, width int) string {
	if est, ok := scanEst(st); ok {
		return fmt.Sprintf("%-*s est≈%s", width, st.describe(), fmtEst(est))
	}
	return st.describe()
}

func fmtEst(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 1, 64)
}

// displayVar hides the synthetic names the planner assigns to anonymous
// pattern elements.
func displayVar(v string) string {
	if strings.HasPrefix(v, "$") {
		return ""
	}
	return v
}

func patternNodeText(np NodePattern) string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(displayVar(np.Var))
	if np.Label != "" {
		b.WriteString(":")
		b.WriteString(np.Label)
	}
	if len(np.Props) > 0 {
		keys := make([]string, 0, len(np.Props))
		for k := range np.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			v := np.Props[k]
			if v.Kind == KindString {
				parts[i] = fmt.Sprintf("%s: %q", k, v.Str)
			} else {
				parts[i] = fmt.Sprintf("%s: %s", k, v.String())
			}
		}
		b.WriteString(" {")
		b.WriteString(strings.Join(parts, ", "))
		b.WriteString("}")
	}
	b.WriteString(")")
	return b.String()
}

// exprString renders any expression for EXPLAIN output.
func exprString(e Expr) string {
	switch v := e.(type) {
	case VarExpr:
		return v.Name
	case PropExpr:
		return v.Var + "." + v.Prop
	case LitExpr:
		if v.Val.Kind == KindString {
			return strconv.Quote(v.Val.Str)
		}
		return v.Val.String()
	case CmpExpr:
		op := v.Op
		switch op {
		case "starts":
			op = "starts with"
		case "ends":
			op = "ends with"
		}
		return exprString(v.Left) + " " + op + " " + exprString(v.Right)
	case BoolExpr:
		return "(" + exprString(v.Left) + " " + v.Op + " " + exprString(v.Right) + ")"
	case NotExpr:
		return "not " + exprString(v.Inner)
	case ParamExpr:
		return "$" + v.Name
	case FuncExpr:
		if v.Star {
			return v.Name + "(*)"
		}
		return v.Name + "(" + exprString(v.Arg) + ")"
	case ListExpr:
		parts := make([]string, len(v.Elems))
		for i, ee := range v.Elems {
			parts[i] = exprString(ee)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "expr"
}
