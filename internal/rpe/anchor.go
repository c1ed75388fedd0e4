package rpe

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/schema"
)

// AnchorSet is a candidate anchor: a set of atom occurrences that splits
// the RPE, i.e. every pathway matching the RPE satisfies at least one of
// the atoms. Evaluation seeds the search from the records matching the
// anchor atoms, so low estimated cardinality is cheap.
type AnchorSet struct {
	Atoms []*Atom
	Cost  float64
}

// String renders the anchor for explain output.
func (a AnchorSet) String() string {
	s := ""
	for i, atom := range a.Atoms {
		if i > 0 {
			s += " | "
		}
		s += atom.String()
	}
	return fmt.Sprintf("{%s} cost=%.1f", s, a.Cost)
}

// defaultCardinality is assumed for a class with neither statistics nor a
// schema hint — deliberately large so unknown classes are poor anchors.
const defaultCardinality = 1e6

// AtomCost estimates the number of records satisfying the atom, following
// §5.1: database statistics when available, otherwise schema hints. An
// equality predicate on a unique field pins the cost to 1; other
// predicates apply selectivity discounts.
func AtomCost(a *Atom, cls *schema.Class, stats *schema.Stats) float64 {
	base := float64(stats.SubtreeCount(cls))
	if base == 0 {
		if cls.CardinalityHint > 0 {
			base = float64(cls.CardinalityHint)
		} else {
			base = defaultCardinality
		}
	}
	cost := base
	for _, p := range a.Preds {
		f, ok := cls.Field(p.Field)
		if !ok {
			continue
		}
		switch {
		case p.Op == OpEq && f.Unique:
			return 1
		case p.Op == OpEq:
			cost /= 10
		case p.Op == OpIn && f.Unique:
			cost = math.Min(cost, float64(len(p.List)))
		default:
			cost /= 3
		}
	}
	if cost < 1 {
		cost = 1
	}
	return cost
}

// anchorFinder implements the §5.1 anchor enumeration rules.
type anchorFinder struct {
	checked *Checked
	stats   *schema.Stats
}

// FindAnchors enumerates candidate anchors for the checked RPE, cheapest
// first. The alternation rule returns the union of the best anchor from
// each alternate rather than the full cross product, avoiding the
// exponential blowup the paper calls out.
func (c *Checked) FindAnchors(stats *schema.Stats) []AnchorSet {
	f := &anchorFinder{checked: c, stats: stats}
	candidates := f.find(c.Expr)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Cost < candidates[j].Cost })
	return candidates
}

// BestAnchor returns the cheapest valid anchor, or an error when the RPE
// is unanchored (e.g. it consists only of {0,n} repetition blocks, so the
// empty pathway satisfies it) — such RPEs are rejected per §3.3 unless a
// join supplies an imported anchor.
func (c *Checked) BestAnchor(stats *schema.Stats) (AnchorSet, error) {
	candidates := c.FindAnchors(stats)
	for _, cand := range candidates {
		if !c.nfa.AcceptsWithout(cand.Atoms) {
			return cand, nil
		}
	}
	return AnchorSet{}, fmt.Errorf("rpe: expression %s has no anchor (every candidate can be bypassed)", c.Expr)
}

func (f *anchorFinder) find(e Expr) []AnchorSet {
	switch x := e.(type) {
	case *Atom:
		cls := f.checked.ClassOf(x)
		return []AnchorSet{{Atoms: []*Atom{x}, Cost: AtomCost(x, cls, f.stats)}}
	case *Sequence:
		// Every part must be traversed by any match, so each part's
		// candidates individually split the whole sequence.
		var out []AnchorSet
		for _, p := range x.Parts {
			out = append(out, f.find(p)...)
		}
		return out
	case *Alternation:
		// A valid anchor needs one atom set per alternate. Per §5.1, cost
		// each alternate's candidates when the block is encountered and
		// keep only the union of the per-alternate best.
		union := AnchorSet{}
		for _, p := range x.Alts {
			cands := f.find(p)
			if len(cands) == 0 {
				return nil // one alternate unanchorable => block unanchorable
			}
			best := cands[0]
			for _, c := range cands[1:] {
				if c.Cost < best.Cost {
					best = c
				}
			}
			union.Atoms = append(union.Atoms, best.Atoms...)
			union.Cost += best.Cost
		}
		return []AnchorSet{union}
	case *Repetition:
		if x.Min == 0 {
			return nil // may match empty: contributes no anchors
		}
		// Repetition(R,n,m) ~ Sequence(R, Repetition(R,n-1,m-1)): the first
		// copy is always traversed, so R's anchors split the block. The NFA
		// unrolls copies sharing atom occurrence ids, so seeding from every
		// transition carrying the anchor atom covers all iterations.
		return f.find(x.Body)
	}
	return nil
}
