package cypher

import (
	"errors"
	"fmt"

	"securitykg/internal/graph"
)

// This file is the write path: one function (applyWrites) applies a
// part's CREATE/MERGE, SET and DELETE clauses to one matched row, for
// the planned pipeline's mutation stage (mutationIter) and for the
// reference evaluator the tests compare it with. Writes are eager: a
// part's reading clauses fully materialize before its writes run, which
// is what keeps a CREATE from feeding its own MATCH (the Halloween
// problem) and makes a statement's effect independent of the order its
// plan enumerates rows in.
//
// Statements are atomic: every write statement runs inside a store
// transaction (tx.go) — an implicit one committed when its cursor
// closes, or the enclosing explicit BEGIN transaction. A statement that
// errors mid-way (a connected node hit by plain DELETE on row 3, a type
// error in a SET expression) rolls back wholesale: the earlier rows'
// mutations are undone and nothing reaches the WAL.
//
// Mutations go through e.w, the statement's graph.Tx. The store acts on
// its latest state — a MERGE augments the node as it now is, not as the
// statement's pinned snapshot saw it — and each write reports its effect
// (graph.Effect): the record to bind and what changed. This file reads no
// store state around a write; it binds and counts what the write reports.

// WriteStats counts what a write query changed: the sum of the effects
// the store reported. Merged-but-not-created entities (the store's
// exact-(type, name) merge rule firing) do not count as created; the
// attributes such a merge adds count as props set.
type WriteStats struct {
	NodesCreated int `json:"nodes_created"`
	EdgesCreated int `json:"edges_created"`
	PropsSet     int `json:"props_set"`
	NodesDeleted int `json:"nodes_deleted"`
	EdgesDeleted int `json:"edges_deleted"`
}

func (w WriteStats) String() string {
	return fmt.Sprintf("nodes created: %d, edges created: %d, props set: %d, nodes deleted: %d, edges deleted: %d",
		w.NodesCreated, w.EdgesCreated, w.PropsSet, w.NodesDeleted, w.EdgesDeleted)
}

// writeClauses bundles one part's writing clauses in application order.
type writeClauses struct {
	creates []CreateClause
	sets    []SetItem
	del     *DeleteClause
}

// writeClausesOf extracts a part's writes (nil for read-only parts).
func writeClausesOf(part *QueryPart) *writeClauses {
	if !part.HasWrites() {
		return nil
	}
	return &writeClauses{creates: part.Creates, sets: part.Sets, del: part.Delete}
}

// applyWrites applies one part's writes for one row, mutating the
// binding's slots in place (a binding value aliases its frame, and every
// variable a write can bind has a slot): CREATE/MERGE bind their pattern variables to the
// created-or-merged entities, SET refreshes the variable it updates so
// downstream projections see the new value. Every count lands in stats.
func (e *Engine) applyWrites(wc *writeClauses, b binding, ps params, stats *WriteStats) error {
	for i := range wc.creates {
		cc := &wc.creates[i]
		for pi := range cc.Patterns {
			if err := e.createPattern(&cc.Patterns[pi], b, ps, stats); err != nil {
				return err
			}
		}
	}
	for i := range wc.sets {
		if err := e.applySet(&wc.sets[i], b, ps, stats); err != nil {
			return err
		}
	}
	if wc.del != nil {
		if err := e.applyDelete(wc.del, b, stats); err != nil {
			return err
		}
	}
	return nil
}

// createPattern merges one pattern chain into the store: nodes left to
// right, then the edges between them.
func (e *Engine) createPattern(p *Pattern, b binding, ps params, stats *WriteStats) error {
	ids := make([]graph.NodeID, len(p.Nodes))
	for i := range p.Nodes {
		id, err := e.createNode(&p.Nodes[i], b, ps, stats)
		if err != nil {
			return err
		}
		ids[i] = id
	}
	for i := range p.Edges {
		ep := &p.Edges[i]
		from, to := ids[i], ids[i+1]
		if ep.Dir == DirLeft {
			from, to = to, from
		}
		attrs, err := resolveAttrs(ep.Props, ep.ParamProps, ep.ExprProps, b, ps)
		if err != nil {
			return err
		}
		ef, err := e.w.AddEdge(from, ep.Type, to, attrs)
		if errors.Is(err, graph.ErrGone) {
			return goneEndpoint(p, i)
		}
		if err != nil {
			return err
		}
		stats.merged(ef, &stats.EdgesCreated)
		if ep.Var != "" {
			if _, bound := b.get(ep.Var); bound {
				return fmt.Errorf("cypher: relationship variable %q already bound in CREATE", ep.Var)
			}
			b.set(ep.Var, EdgeValue(ef.Edge))
		}
	}
	return nil
}

// goneEndpoint is the error for edge i of p naming a node the store no
// longer holds. Only a reused endpoint — a bound variable, the one kind
// of CREATE node without a label — can be gone: a merged one was just
// written under the writer lock.
func goneEndpoint(p *Pattern, i int) error {
	a, b := &p.Nodes[i], &p.Nodes[i+1]
	switch {
	case a.Label == "" && b.Label == "":
		return fmt.Errorf("cypher: CREATE endpoint %q or %q refers to a deleted node", a.Var, b.Var)
	case b.Label == "":
		a = b
	}
	return fmt.Errorf("cypher: CREATE endpoint %q refers to a deleted node", a.Var)
}

// createNode resolves one CREATE pattern node: an already-bound
// variable refers to the existing node (and may carry no further
// pattern), anything else needs a label and a name and is merged in. A
// reused node is not looked up: if it is gone, an edge naming it fails
// in the store.
func (e *Engine) createNode(np *NodePattern, b binding, ps params, stats *WriteStats) (graph.NodeID, error) {
	if np.Var != "" {
		if v, bound := b.get(np.Var); bound {
			if v.Kind != KindNode {
				return 0, fmt.Errorf("cypher: CREATE endpoint %q is not a node (null from OPTIONAL MATCH?)", np.Var)
			}
			if np.Label != "" || len(np.Props) > 0 || len(np.ParamProps) > 0 || len(np.ExprProps) > 0 {
				return 0, fmt.Errorf("cypher: variable %q is already bound; a CREATE/MERGE reuse cannot restate a label or properties", np.Var)
			}
			return v.Node.ID, nil
		}
	}
	if np.Label == "" {
		return 0, fmt.Errorf("cypher: CREATE/MERGE requires a label on (%s)", displayVar(np.Var))
	}
	attrs, err := resolveAttrs(np.Props, np.ParamProps, np.ExprProps, b, ps)
	if err != nil {
		return 0, err
	}
	name, ok := attrs["name"]
	if !ok {
		return 0, fmt.Errorf("cypher: CREATE/MERGE requires a name property on (%s:%s) — the store merges on exact (label, name)", displayVar(np.Var), np.Label)
	}
	delete(attrs, "name")
	if len(attrs) == 0 {
		attrs = nil
	}
	ef := e.w.MergeNode(np.Label, name, attrs)
	stats.merged(ef, &stats.NodesCreated)
	if np.Var != "" {
		b.set(np.Var, NodeValue(ef.Node))
	}
	return ef.Node.ID, nil
}

// merged counts one MergeNode or AddEdge effect: a creation in created,
// or the attributes a merge hit added as props set — a real, WAL-logged
// mutation the stats must not call "nothing changed".
func (w *WriteStats) merged(ef graph.Effect, created *int) {
	if ef.Created {
		*created++
	} else {
		w.PropsSet += ef.Attrs
	}
}

// resolveAttrs renders a pattern's literal, $parameter and expression
// properties as store attributes. Expression properties (e.g.
// "{name: row.name}" inside an UNWIND batch) evaluate against the row's
// bindings; a null result is an error — merge keys and attributes must
// be concrete.
func resolveAttrs(props map[string]Value, paramProps map[string]string,
	exprProps map[string]Expr, b binding, ps params) (map[string]string, error) {
	if len(props) == 0 && len(paramProps) == 0 && len(exprProps) == 0 {
		return nil, nil
	}
	attrs := make(map[string]string, len(props)+len(paramProps)+len(exprProps))
	for k, v := range props {
		s, err := attrString(k, &v)
		if err != nil {
			return nil, err
		}
		attrs[k] = s
	}
	for k, pn := range paramProps {
		v, ok := ps.get(pn)
		if !ok {
			return nil, fmt.Errorf("cypher: missing parameter $%s", pn)
		}
		s, err := attrString(k, v)
		if err != nil {
			return nil, err
		}
		attrs[k] = s
	}
	var v Value // each property, evaluated in place
	for k, ex := range exprProps {
		if err := evalInto(&v, ex, &b, ps); err != nil {
			return nil, err
		}
		if v.Kind == KindNull {
			return nil, fmt.Errorf("cypher: property %q evaluated to null in CREATE/MERGE", k)
		}
		s, err := attrString(k, &v)
		if err != nil {
			return nil, err
		}
		attrs[k] = s
	}
	return attrs, nil
}

// attrString renders a value as a store attribute (attributes are
// strings; numbers and booleans use their canonical rendering).
func attrString(key string, v *Value) (string, error) {
	switch v.Kind {
	case KindString, KindNumber, KindBool:
		return v.String(), nil
	}
	return "", fmt.Errorf("cypher: property %q must be a string, number or boolean (got %s)", key, v.String())
}

// applySet applies one SET assignment for one row. Null targets (an
// OPTIONAL MATCH that found nothing) skip silently, mirroring Neo4j.
func (e *Engine) applySet(it *SetItem, b binding, ps params, stats *WriteStats) error {
	v, bound := b.get(it.Var)
	if !bound {
		return fmt.Errorf("cypher: SET references unbound variable %q", it.Var)
	}
	if v.Kind == KindNull {
		return nil
	}
	if v.Kind != KindNode {
		return fmt.Errorf("cypher: SET is only supported on nodes (%q is %s)", it.Var, v.String())
	}
	switch it.Prop {
	case "name", "type", "label", "id":
		return fmt.Errorf("cypher: cannot SET %s.%s — it is structural (drives the merge and label indexes)", it.Var, it.Prop)
	}
	val, err := evalExpr(it.Val, &b, ps)
	if err != nil {
		return err
	}
	if val.Kind == KindNull {
		return fmt.Errorf("cypher: cannot SET %s.%s to null (attribute removal is not supported)", it.Var, it.Prop)
	}
	s, err := attrString(it.Prop, &val)
	if err != nil {
		return err
	}
	// Writing the value already present is a no-op everywhere (the store
	// neither logs nor bumps its epoch, and reports no attribute changed),
	// so the counter agrees with the WAL: PropsSet counts what changed.
	ef, err := e.w.SetAttr(v.Node.ID, it.Prop, s)
	if errors.Is(err, graph.ErrGone) {
		return fmt.Errorf("cypher: SET %s.%s: node was deleted", it.Var, it.Prop)
	}
	if err != nil {
		return err
	}
	stats.PropsSet += ef.Attrs
	// Refresh the binding so downstream projections see the new value.
	b.set(it.Var, NodeValue(ef.Node))
	return nil
}

// applyDelete deletes the row's bound entities. Entities a previous row
// already removed (or edges that vanished with a DETACH-deleted
// endpoint) skip silently; the store is the source of truth.
func (e *Engine) applyDelete(dc *DeleteClause, b binding, stats *WriteStats) error {
	for _, name := range dc.Vars {
		v, bound := b.get(name)
		if !bound {
			return fmt.Errorf("cypher: DELETE references unbound variable %q", name)
		}
		switch v.Kind {
		case KindNull:
			continue
		case KindEdge:
			err := e.w.DeleteEdge(v.Edge.ID)
			if errors.Is(err, graph.ErrGone) {
				continue
			}
			if err != nil {
				return err
			}
			stats.EdgesDeleted++
		case KindNode:
			ef, err := e.w.DeleteNode(v.Node.ID, dc.Detach)
			if err != nil {
				var attached *graph.AttachedError
				switch {
				case errors.Is(err, graph.ErrGone):
					continue
				case errors.As(err, &attached):
					return fmt.Errorf("cypher: cannot DELETE %q: node still has %d relationship(s) — use DETACH DELETE", name, attached.Edges)
				}
				return err
			}
			stats.NodesDeleted++
			stats.EdgesDeleted += ef.Edges
		default:
			return fmt.Errorf("cypher: DELETE expects a node or relationship (%q is %s)", name, v.String())
		}
	}
	return nil
}
