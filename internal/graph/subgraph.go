package graph

import (
	"math/rand"
	"sort"
)

// Subgraph is a materialized view of part of the graph, the unit the
// exploration UI renders and the layout engine positions.
type Subgraph struct {
	Nodes []*Node `json:"nodes"`
	Edges []*Edge `json:"edges"`
}

// NodeIDs returns the IDs of the subgraph's nodes in order.
func (sg *Subgraph) NodeIDs() []NodeID {
	out := make([]NodeID, len(sg.Nodes))
	for i, n := range sg.Nodes {
		out[i] = n.ID
	}
	return out
}

// ExpandFrom is Snap.ExpandFrom on a snapshot of the committed state
// taken for the call.
func (s *Store) ExpandFrom(seeds []NodeID, maxDepth, maxNeighbors, maxNodes int) *Subgraph {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.ExpandFrom(seeds, maxDepth, maxNeighbors, maxNodes)
}

// ExpandFrom performs a breadth-first expansion from the seed nodes,
// visiting at most maxNeighbors neighbors per node and maxNodes nodes in
// total, up to maxDepth hops; the seeds are always included. It returns
// the induced subgraph (all edges of the snapshot connecting two included
// nodes). This backs the UI's double-click node-expansion behaviour.
func (sn *Snap) ExpandFrom(seeds []NodeID, maxDepth, maxNeighbors, maxNodes int) *Subgraph {
	included := make(map[NodeID]bool)
	var order []NodeID
	queue := make([]NodeID, 0, len(seeds))
	depth := map[NodeID]int{}
	for _, id := range seeds {
		if sn.Node(id) == nil || included[id] {
			continue
		}
		included[id] = true
		order = append(order, id)
		depth[id] = 0
		queue = append(queue, id)
	}
	for len(queue) > 0 && len(order) < maxNodes {
		cur := queue[0]
		queue = queue[1:]
		if depth[cur] >= maxDepth {
			continue
		}
		added := 0
		for _, nb := range sn.Neighbors(cur, Both) {
			if added >= maxNeighbors || len(order) >= maxNodes {
				break
			}
			if included[nb.ID] {
				continue
			}
			included[nb.ID] = true
			order = append(order, nb.ID)
			depth[nb.ID] = depth[cur] + 1
			queue = append(queue, nb.ID)
			added++
		}
	}
	return sn.induced(order, included)
}

// RandomSubgraph samples a connected-ish subgraph of about n nodes using a
// deterministic RNG seed: it picks a random start node and grows by random
// neighbor expansion, restarting on dead ends. Backs the UI's "fetch a
// random subgraph" feature.
func (sn *Snap) RandomSubgraph(seed int64, n int) *Subgraph {
	all := sn.AllNodeIDs()
	if len(all) == 0 || n <= 0 {
		return &Subgraph{}
	}
	rng := rand.New(rand.NewSource(seed))
	included := make(map[NodeID]bool)
	var order []NodeID
	var frontier []NodeID
	addNode := func(id NodeID) {
		if !included[id] {
			included[id] = true
			order = append(order, id)
			frontier = append(frontier, id)
		}
	}
	addNode(all[rng.Intn(len(all))])
	for len(order) < n && len(order) < len(all) {
		if len(frontier) == 0 {
			addNode(all[rng.Intn(len(all))]) // restart on isolated region
			continue
		}
		i := rng.Intn(len(frontier))
		cur := frontier[i]
		nbs := sn.Neighbors(cur, Both)
		var cand []NodeID
		for _, nb := range nbs {
			if !included[nb.ID] {
				cand = append(cand, nb.ID)
			}
		}
		if len(cand) == 0 {
			frontier = append(frontier[:i], frontier[i+1:]...)
			continue
		}
		addNode(cand[rng.Intn(len(cand))])
	}
	return sn.induced(order, included)
}

// induced builds the subgraph over the given node order with every visible
// edge whose endpoints are both included.
func (sn *Snap) induced(order []NodeID, included map[NodeID]bool) *Subgraph {
	sg := &Subgraph{}
	for _, id := range order {
		if n := sn.Node(id); n != nil {
			sg.Nodes = append(sg.Nodes, n)
		}
	}
	seenEdge := make(map[EdgeID]bool)
	for _, id := range order {
		for _, e := range sn.Edges(id, Out) {
			if included[e.To] && !seenEdge[e.ID] {
				seenEdge[e.ID] = true
				sg.Edges = append(sg.Edges, e)
			}
		}
	}
	sort.Slice(sg.Edges, func(i, j int) bool { return sg.Edges[i].ID < sg.Edges[j].ID })
	return sg
}

// CollapseFrom returns the node IDs that should be hidden when the user
// collapses node id in a view currently showing viewNodes: every neighbor
// of id (and nodes only reachable through those neighbors) that would be
// disconnected from the remaining view once id's neighborhood is hidden.
// Seeds (anchors) are view nodes the caller wants to keep visible.
func (sn *Snap) CollapseFrom(id NodeID, viewNodes []NodeID, anchors []NodeID) []NodeID {
	inView := make(map[NodeID]bool, len(viewNodes))
	for _, v := range viewNodes {
		inView[v] = true
	}
	keep := make(map[NodeID]bool)
	keep[id] = true
	// BFS from anchors through the view *without* traversing node id:
	// whatever is unreachable collapses.
	queue := make([]NodeID, 0, len(anchors))
	for _, a := range anchors {
		if a != id && inView[a] && !keep[a] {
			keep[a] = true
			queue = append(queue, a)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range sn.Neighbors(cur, Both) {
			if nb.ID == id || !inView[nb.ID] || keep[nb.ID] {
				continue
			}
			keep[nb.ID] = true
			queue = append(queue, nb.ID)
		}
	}
	var hidden []NodeID
	for _, v := range viewNodes {
		if !keep[v] {
			hidden = append(hidden, v)
		}
	}
	sort.Slice(hidden, func(i, j int) bool { return hidden[i] < hidden[j] })
	return hidden
}
