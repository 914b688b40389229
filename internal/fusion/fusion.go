// Package fusion implements the knowledge-fusion stage (Section 2.5): a
// pass separate from the main storage pipeline that merges nodes which
// refer to the same entity under different description texts (vendor
// naming conventions, case variants), creating a unified node, migrating
// all relation edges, and recording aliases — without risking the early
// deletion of information that eager merging in the storage stage would.
package fusion

import (
	"sort"
	"strings"

	"securitykg/internal/graph"
)

// Options tune the fusion pass.
type Options struct {
	// Types restricts fusion to the given node types (nil = all types).
	Types []string
}

// Stats reports what a fusion pass did.
type Stats struct {
	Groups        int // alias groups found
	NodesMerged   int // duplicate nodes folded into canonicals
	EdgesBefore   int
	EdgesAfter    int
	AliasesStored int
}

// vendor naming prefixes stripped during normalization; mirrored from the
// conventions real AV vendors use (and the synthetic generator emits).
var aliasPrefixes = []string{
	"w32/", "w64/", "win32/", "win64/",
	"ransom.win32.", "ransom.win64.", "trojan.win32.", "trojan.",
	"backdoor.", "worm.", "mal/", "ransom:",
}

// Normalize reduces an entity name to its alias-group key: lowercase,
// vendor prefixes stripped, separators removed.
func Normalize(name string) string {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, p := range aliasPrefixes {
		if strings.HasPrefix(n, p) {
			n = strings.TrimPrefix(n, p)
			break
		}
	}
	var b strings.Builder
	for _, r := range n {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Fuse runs one fusion pass over the store. Within each node type, nodes
// whose normalized names agree form an alias group; the group member with
// the highest degree (ties: lowest ID, i.e. earliest inserted) becomes the
// canonical node, every other member's edges migrate to it, alias names
// are recorded in the canonical's "aliases" attribute, and the duplicates
// are removed. The pass is one transaction: readers see the store before
// it or after it, and a failed pass changes nothing.
func Fuse(s *graph.Store, opts Options) (Stats, error) {
	var st Stats
	st.EdgesBefore = s.Stats().Edges
	tx := s.BeginTx()
	if err := fuse(tx, opts, &st); err != nil {
		tx.Rollback()
		return st, err
	}
	if err := tx.Commit(); err != nil {
		return st, err
	}
	st.EdgesAfter = s.Stats().Edges
	return st, nil
}

// fuse is Fuse's pass, reading through tx's view and writing through tx.
func fuse(tx *graph.Tx, opts Options, st *Stats) error {
	view := tx.Snap()
	typeFilter := map[string]bool{}
	for _, t := range opts.Types {
		typeFilter[t] = true
	}

	// Group nodes by (type, normalized name).
	groups := map[string][]*graph.Node{}
	view.ForEachNode(func(n *graph.Node) bool {
		if len(typeFilter) > 0 && !typeFilter[n.Type] {
			return true
		}
		key := n.Type + "\x00" + Normalize(n.Name)
		if Normalize(n.Name) == "" {
			return true
		}
		groups[key] = append(groups[key], n)
		return true
	})

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		members := groups[k]
		if len(members) < 2 {
			continue // a name no other node shares
		}
		st.Groups++
		// Pick the canonical: highest degree, then lowest ID.
		best := members[0]
		bestDeg := len(view.Edges(best.ID, graph.Both))
		for _, m := range members[1:] {
			deg := len(view.Edges(m.ID, graph.Both))
			if deg > bestDeg || (deg == bestDeg && m.ID < best.ID) {
				best, bestDeg = m, deg
			}
		}
		aliases := collectAliases(view, best)
		for _, m := range members {
			if m.ID == best.ID {
				continue
			}
			if err := tx.MigrateEdges(m.ID, best.ID); err != nil {
				return err
			}
			// Unify attributes: keep canonical's values, adopt new keys.
			for _, kv := range m.Attrs {
				if cur := view.Node(best.ID); cur != nil {
					if _, has := cur.Attrs.Lookup(kv.Key); !has {
						if _, err := tx.SetAttr(best.ID, kv.Key, kv.Val); err != nil {
							return err
						}
					}
				}
			}
			if m.Name != best.Name {
				aliases[m.Name] = true
			}
			if _, err := tx.DeleteNode(m.ID, true); err != nil {
				return err
			}
			st.NodesMerged++
		}
		if len(aliases) > 0 {
			names := make([]string, 0, len(aliases))
			for a := range aliases {
				names = append(names, a)
			}
			sort.Strings(names)
			if _, err := tx.SetAttr(best.ID, "aliases", strings.Join(names, "|")); err != nil {
				return err
			}
			st.AliasesStored += len(names)
		}
	}
	return nil
}

func collectAliases(view *graph.Snap, n *graph.Node) map[string]bool {
	out := map[string]bool{}
	if cur := view.Node(n.ID); cur != nil {
		if prev, ok := cur.Attrs.Lookup("aliases"); ok && prev != "" {
			for _, a := range strings.Split(prev, "|") {
				out[a] = true
			}
		}
	}
	return out
}
