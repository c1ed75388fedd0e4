package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/rpe"
	"repro/internal/schema"
)

// Direction orients an Extend step relative to the pathway under
// construction.
type Direction int

const (
	Forward  Direction = iota // extend the pathway at its tail
	Backward                  // extend the pathway at its head
)

func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Accessor is the physical access interface a backend provides. The search
// engine calls it for anchor retrieval and adjacency expansion; everything
// else (NFA bookkeeping, temporal intersection, cycle pruning, result
// assembly) is shared.
//
// Both access methods take the query's Governor (nil for ungoverned
// queries) and must check it cooperatively inside long scan loops, so a
// canceled or over-budget query aborts even while a single physical probe
// is still running. They may also fail for backend-specific reasons
// (e.g. an injected transient fault from internal/chaos); the engine
// propagates any error to the query boundary.
type Accessor interface {
	// Name identifies the backend ("gremlin", "relational").
	Name() string
	// Store returns the underlying temporal store.
	Store() *graph.Store
	// AnchorElements returns the UIDs of elements that satisfy the atom
	// within the view — the physical realization of the Select operator.
	AnchorElements(view graph.View, c *rpe.Checked, a *rpe.Atom, gov *Governor) ([]graph.UID, error)
	// IncidentEdges returns edges leaving (Forward) or entering (Backward)
	// the node within the view. When atom is non-nil the backend may use it
	// to prune by class partition; it must return a superset of the edges
	// satisfying the atom and may ignore the hint entirely. The engine
	// re-checks every candidate, so pruning is purely physical.
	IncidentEdges(view graph.View, node graph.UID, dir Direction, atom *rpe.Atom, c *rpe.Checked, gov *Governor) ([]graph.UID, error)
}

// UniqueAnchor is the Select operator's index path both backends share:
// when the atom pins a unique field with equality or IN (the field
// declared on the atom's class or any ancestor, the index keyed by the
// declaring class), ok is true and elems holds, once each, the owners of
// the listed values that belong to the atom's class: one lookup per value,
// and a value nobody holds is provably empty. ok is false when no such
// predicate exists, or when the index cannot answer for the whole view —
// an element gave a value of the field up after the view's window opens
// (graph.Store.LookupUniqueSince) — and the backend must scan.
func UniqueAnchor(view graph.View, cls *schema.Class, a *rpe.Atom) (elems []graph.UID, ok bool) {
	st := view.Store()
	for _, p := range a.Preds {
		if p.Op != rpe.OpEq && p.Op != rpe.OpIn {
			continue
		}
		decl := uniqueDecl(cls, p.Field)
		if decl == nil {
			continue
		}
		one := [1]any{p.Value}
		vals := one[:]
		if p.Op == rpe.OpIn {
			vals = p.List
		}
		for _, v := range vals {
			uid, found, exact := st.LookupUniqueSince(decl.Name, p.Field, v, view.Window().Start)
			if !exact {
				return nil, false
			}
			if !found || slices.Contains(elems, uid) {
				continue
			}
			if obj := st.Elem(uid); obj != nil && obj.Class.IsSubclassOf(cls) {
				elems = append(elems, uid)
			}
		}
		return elems, true
	}
	return nil, false
}

// uniqueDecl returns the class, cls or an ancestor, that declares field
// unique, or nil.
func uniqueDecl(cls *schema.Class, field string) *schema.Class {
	for cur := cls; cur != nil; cur = cur.Parent {
		for _, f := range cur.OwnFields {
			if f.Name == field {
				if f.Unique {
					return cur
				}
				return nil
			}
		}
	}
	return nil
}

// Plan is an executable query plan: the checked RPE, the selected anchor,
// and the operator DAG description used by EXPLAIN and code generation.
type Plan struct {
	Checked *rpe.Checked
	Anchor  rpe.AnchorSet
	// Seeded is set when the anchor is imported from a join (§3.4): the
	// pathway variable had no anchor of its own and is instead seeded with
	// node UIDs at its source or target.
	Seeded  bool
	SeedDir Direction
	// MaxLen caps pathway length in elements; it defaults to the RPE's own
	// length bound and may be tightened by the query.
	MaxLen int
}

// Build selects the cheapest anchor for the checked RPE using store
// statistics and returns the plan. It fails on unanchored RPEs, as §3.3
// requires (a join can still import an anchor via BuildSeeded).
func Build(c *rpe.Checked, stats *schema.Stats) (*Plan, error) {
	anchor, err := c.BestAnchor(stats)
	if err != nil {
		return nil, err
	}
	return &Plan{Checked: c, Anchor: anchor, MaxLen: c.MaxLen()}, nil
}

// BuildSeeded returns a plan whose anchor is imported from a join: the
// search will be seeded with externally supplied node UIDs at the source
// (Forward plan) or target (Backward plan) of the pathway.
func BuildSeeded(c *rpe.Checked, dir Direction) *Plan {
	return &Plan{Checked: c, Seeded: true, SeedDir: dir, MaxLen: c.MaxLen()}
}

// Explain renders the operator DAG as text: the Select operator for the
// anchor and the Extend/ExtendBlock structure derived from the RPE, in the
// style of §5.1's conversion.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "RPE: %s\n", p.Checked.Expr)
	if p.Seeded {
		fmt.Fprintf(&sb, "Select: imported anchor (join seed at %s end)\n", seedEnd(p.SeedDir))
	} else {
		fmt.Fprintf(&sb, "Select: %s\n", p.Anchor)
	}
	fmt.Fprintf(&sb, "MaxLen: %d elements\n", p.MaxLen)
	p.explainGoals(&sb)
	sb.WriteString(explainOps(p.Checked.Expr, p.anchorIDs(), nil))
	return sb.String()
}

// explainGoals writes one line per goal-directed half: the atoms it
// searches toward and the radius of its breadth-first search.
func (p *Plan) explainGoals(sb *strings.Builder) {
	_, labels := p.Checked.Rendered()
	for _, dir := range [2]Direction{Forward, Backward} {
		if atoms, radius := p.goal(dir); atoms != nil {
			fmt.Fprintf(sb, "Goal: %s\n", goalLabel(labels, dir, atoms, radius))
		}
	}
}

func seedEnd(d Direction) string {
	if d == Backward {
		return "target"
	}
	return "source"
}

func (p *Plan) anchorIDs() map[int]bool {
	ids := make(map[int]bool, len(p.Anchor.Atoms))
	for _, a := range p.Anchor.Atoms {
		ids[a.ID()] = true
	}
	return ids
}

// explainOps walks the expression emitting one operator line per block.
// annotate, when non-nil, supplies a per-line suffix (EXPLAIN ANALYZE
// measurements); a nil annotate renders the bare plan.
func explainOps(e rpe.Expr, anchors map[int]bool, annotate func(rpe.Expr) string) string {
	var sb strings.Builder
	var walk func(e rpe.Expr, depth int)
	indent := func(d int) string { return strings.Repeat("  ", d+1) }
	suffix := func(e rpe.Expr) string {
		if annotate == nil {
			return ""
		}
		return annotate(e)
	}
	walk = func(e rpe.Expr, depth int) {
		switch x := e.(type) {
		case *rpe.Atom:
			op := "Extend"
			if anchors[x.ID()] {
				op = "Anchor"
			}
			fmt.Fprintf(&sb, "%s%s %s%s\n", indent(depth), op, x, suffix(x))
		case *rpe.Sequence:
			fmt.Fprintf(&sb, "%sSequence%s\n", indent(depth), suffix(x))
			for _, part := range x.Parts {
				walk(part, depth+1)
			}
		case *rpe.Alternation:
			fmt.Fprintf(&sb, "%sUnion%s\n", indent(depth), suffix(x))
			for _, alt := range x.Alts {
				walk(alt, depth+1)
			}
		case *rpe.Repetition:
			fmt.Fprintf(&sb, "%sExtendBlock {%d,%d}%s\n", indent(depth), x.Min, x.Max, suffix(x))
			walk(x.Body, depth+1)
		}
	}
	walk(e, 0)
	return sb.String()
}
