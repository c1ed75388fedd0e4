package plan

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rpe"
)

// Goal-directed Extend. A half-search that can only finish on a node
// pinned by a unique key (rpe.Checked.GoalAtoms) knows where it must end.
// Before it starts, a breadth-first search from those goal nodes, against
// the search's direction, marks each node within radius hops of them with
// its distance (elemEntry.goal). Extend then drops an edge whose far node
// cannot reach the goal within what is left of the half's element budget.
//
// The marks are lower bounds: the breadth-first search follows every
// visible edge an edge atom of the expression (or, when a skip can consume
// edges, anything) could consume, a superset of what the search consumes,
// and a node it did not reach is farther than the radius. A pathway from
// a node to a goal node over k edges holds 2k elements after the node, so
// an edge dropped this way starts no completion of the half, and the
// search keeps its depth-first order: results come out as without the
// prune. The radius is half the half's hop budget, the meet-in-the-middle
// bound: the search roams freely for its first half and then only inside
// the goal's ball.

// maxGoalRadius caps the radius so a distance fits an elemEntry byte; a
// smaller radius only prunes less.
const maxGoalRadius = 254

// goalHalf is one half's goal for one evaluation.
type goalHalf struct {
	atoms  []int // goal atom ids; nil: the half is not goal-directed
	radius int   // breadth-first radius in hops
	ran    bool  // the breadth-first search has run
	nodes  int   // goal nodes the view holds
}

// goal returns the goal atoms of the plan's dir half-searches and the
// breadth-first radius, or nil atoms when the half is not goal-directed:
// seeded plans, and plans one of whose anchor atoms is itself a goal
// atom, where the half starts at its goal. A half consumes at most
// MaxLen+1 elements past its root (search's depth cap), so its hop budget
// is half that, and the radius half the budget, rounded up.
func (p *Plan) goal(dir Direction) (atoms []int, radius int) {
	atoms = p.Checked.GoalAtoms(dir == Backward)
	if atoms == nil || p.Seeded {
		return nil, 0
	}
	for _, a := range p.Anchor.Atoms {
		if slices.Contains(atoms, a.ID()) {
			return nil, 0
		}
	}
	return atoms, min(((p.MaxLen+1)/2+1)/2, maxGoalRadius)
}

// aim readies the goal-directed halves for a search from an anchor
// element, running each half's breadth-first search on first use. It
// reports false when the search cannot produce a pathway: a goal-directed
// half whose goal the view does not hold, or a failure.
func (e *Engine) aim(view graph.View, c *rpe.Checked, es *evalState) bool {
	for d := range es.goal {
		g := &es.goal[d]
		if g.atoms == nil {
			continue
		}
		if !g.ran {
			g.ran = true
			e.goalSearch(view, c, Direction(d), g, es)
		}
		if g.nodes == 0 || es.err != nil {
			return false
		}
	}
	return true
}

// goalSearch marks the distance of every node within g.radius hops of the
// dir half's goal nodes in the element table. Its probes count as the
// evaluation's edges, under its governor.
func (e *Engine) goalSearch(view graph.View, c *rpe.Checked, dir Direction, g *goalHalf, es *evalState) {
	span := es.tr.goalNode(dir, g)
	t0 := span.begin()
	defer span.end(t0)
	q := es.goalQ[:0]
	for _, id := range g.atoms {
		a := c.Atoms()[id]
		elems, err := e.acc.AnchorElements(view, c, a, es.gov)
		if err != nil {
			es.fail(err)
			return
		}
		for _, uid := range elems {
			ei := es.tab.resolve(uid)
			ent := &es.tab.ents[ei]
			if ent.visible && !ent.isEdge && ent.goal[dir] == 0 && es.tab.satisfies(ei, a) {
				ent.goal[dir] = 1
				q = append(q, ei)
			}
		}
	}
	g.nodes = len(q)
	span.rows(g.nodes, 0)
	edgeAtoms, anyEdge := c.GoalEdges()
	var hint *rpe.Atom
	if !anyEdge && len(edgeAtoms) == 1 {
		hint = c.Atoms()[edgeAtoms[0]]
	}
	back := Backward // against the search: a forward half's goal is reached over in-edges
	if dir == Backward {
		back = Forward
	}
	for head := 0; head < len(q); head++ {
		if es.checkpoint() {
			break
		}
		node := es.tab.ents[q[head]]
		if int(node.goal[dir]) > g.radius {
			break // the queue is in distance order: the rest lie on the radius
		}
		edges, err := e.acc.IncidentEdges(view, node.obj.UID, back, hint, c, es.gov)
		if err == nil {
			err = es.gov.AddEdges(len(edges))
		}
		span.probed(0, len(edges), 0)
		es.m.EdgesScanned += len(edges)
		if err != nil {
			es.fail(err)
			break
		}
		for _, edge := range edges {
			ei := es.tab.resolve(edge)
			ent := es.tab.ents[ei]
			if !ent.visible || !ent.isEdge || !anyEdge && !es.consumable(c, ei, edgeAtoms) {
				continue
			}
			far := ent.obj.Src
			if back == Forward {
				far = ent.obj.Dst
			}
			fi := es.tab.resolve(far)
			if ent := &es.tab.ents[fi]; ent.visible && !ent.isEdge && ent.goal[dir] == 0 {
				ent.goal[dir] = node.goal[dir] + 1
				q = append(q, fi)
			}
		}
	}
	span.rows(0, len(q))
	es.goalQ = q
}

// consumable reports whether edge entry ei satisfies one of the atoms.
func (es *evalState) consumable(c *rpe.Checked, ei int32, atoms []int) bool {
	for _, id := range atoms {
		if es.tab.satisfies(ei, c.Atoms()[id]) {
			return true
		}
	}
	return false
}

// reach returns how many hops from its half's goal the far node of an
// edge consumed next by partial n may lie, or -1 when it is not checked:
// the half is not goal-directed, or the budget left exceeds the radius,
// within which every node is known.
func (es *evalState) reach(n partial, dir Direction, maxLen int) int {
	g := &es.goal[dir]
	if g.atoms == nil {
		return -1
	}
	// The edge and its far node are elements depth and depth+1 past the
	// root, of at most maxLen+1; every hop from there to the goal costs
	// two more.
	r := (maxLen - int(n.depth)) / 2
	if r > g.radius {
		return -1
	}
	return r
}

// beyond reports whether edge's far node lies more than reach hops from
// the dir half's goal. A node the breadth-first search did not reach is
// farther than its radius, and reach is within it.
func (es *evalState) beyond(edge graph.UID, dir Direction, reach int) bool {
	ent := es.tab.ents[es.tab.resolve(edge)]
	if !ent.visible || !ent.isEdge {
		return false // consume rejects it
	}
	far := ent.obj.Dst
	if dir == Backward {
		far = ent.obj.Src
	}
	fi, ok := es.tab.idx.get(far)
	if !ok {
		return true
	}
	d := int(es.tab.ents[fi].goal[dir])
	return d == 0 || d-1 > reach
}
