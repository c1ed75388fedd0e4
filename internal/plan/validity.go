package plan

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

// ComputeValidity returns the maximal transaction-time ranges during which
// the pathway (a fixed element-uid sequence over evolving field values)
// satisfies the checked RPE.
//
// Field values are piecewise-constant between version boundaries, so the
// pathway's satisfaction is piecewise-constant too. Two regimes, from
// cheap to general:
//
//  1. Every element is *stable*: either single-version, or all its
//     versions agree on which atoms they satisfy (churn touched only
//     fields the query never tests). Then satisfaction cannot change
//     while all elements exist: one matcher run over the intersection of
//     the element lifetimes decides everything.
//  2. Otherwise, the matcher runs once per slice between consecutive
//     version boundaries of the elements, and the satisfied slices union
//     into maximal ranges — the §4 semantics, where a time-range result
//     reports the maximal range the pathway can be asserted, possibly
//     extending beyond the query window.
//
// It resolves the elements in the table of a pooled evaluation state of
// its own, so a caller filtering many pathways reuses one table's pages;
// the engine runs the same computation over its evaluation's table
// (computeValidity).
func ComputeValidity(st *graph.Store, c *rpe.Checked, elems []graph.UID) temporal.Set {
	es := getEvalState(nil)
	defer putEvalState(es)
	es.tab.reset(st, graph.View{}, c)
	return slices.Clone(computeValidity(&es.tab, elems, &es.validity, false))
}

// validityScratch holds computeValidity's working arrays, so an
// evaluation pays for them once rather than once per candidate pathway.
type validityScratch struct {
	objs       []*graph.Elem
	elements   []rpe.Element
	boundaries []int64
	ranges     temporal.Set
	cur, next  rpe.StateSet
}

// computeValidity is ComputeValidity over the elements of tab, pinned at
// their first touch, returned in sc's storage: valid until its next call.
// matched reports that the search already found an accepting run over
// elems: in regime 1 that run holds at every version, since no stable
// element's versions differ on any atom, so the matcher is not run again.
func computeValidity(tab *elemTable, elems []graph.UID, sc *validityScratch, matched bool) temporal.Set {
	if n := len(elems); cap(sc.objs) < n {
		n = max(n, 2*cap(sc.objs))
		sc.objs, sc.elements = make([]*graph.Elem, n), make([]rpe.Element, n)
	}
	objs := sc.objs[:len(elems)]
	allStable := true
	for i, uid := range elems {
		ei := tab.resolve(uid)
		if objs[i] = tab.ents[ei].obj; objs[i] == nil {
			return nil
		}
		if allStable && !tab.stable(ei) {
			allStable = false
		}
	}
	c := tab.c

	if allStable {
		// Lifetimes of stable elements coalesce to a single interval each
		// (updates never interrupt existence; only delete ends it, and a
		// deleted uid is never re-created).
		iv := temporal.Interval{Start: math.MinInt64, End: temporal.Forever}
		for _, obj := range objs {
			life := temporal.Between(obj.Versions[0].Start, obj.End)
			var ok bool
			if iv, ok = iv.Intersect(life); !ok {
				return nil
			}
		}
		if !matched {
			elements := sc.elements[:len(objs)]
			for i, obj := range objs {
				elements[i] = rpe.Element{Class: obj.Class, Rec: obj.Versions[0].Rec}
			}
			if !sc.matches(c, elements) {
				return nil
			}
		}
		sc.ranges = append(sc.ranges[:0], iv)
		return sc.ranges
	}

	// The slices between consecutive boundaries come in time order, so a
	// satisfied one either extends the last range or starts a new one.
	sc.boundaries = VersionBoundaries(sc.boundaries, objs)
	out := sc.ranges[:0]
	for i, start := range sc.boundaries {
		iv := temporal.Current(start)
		if i+1 < len(sc.boundaries) {
			iv = temporal.Between(start, sc.boundaries[i+1])
		}
		if !sc.matchesAt(c, objs, start) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Meets(iv) {
			out[n-1].End = iv.End
		} else {
			out = append(out, iv)
		}
	}
	sc.ranges = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// matchesAt reports whether the pathway of objs, every one existing at
// t, satisfies c with the field values they held at t.
func (sc *validityScratch) matchesAt(c *rpe.Checked, objs []*graph.Elem, t int64) bool {
	elements := sc.elements[:len(objs)]
	for i, obj := range objs {
		ver := obj.VersionAt(t)
		if ver == nil {
			return false
		}
		elements[i] = rpe.Element{Class: obj.Class, Rec: ver.Rec}
	}
	return sc.matches(c, elements)
}

// matches runs the matcher over elements in the scratch state sets.
func (sc *validityScratch) matches(c *rpe.Checked, elements []rpe.Element) bool {
	w := (c.NFA().NumStates + 63) / 64
	if cap(sc.cur) < w {
		sc.cur, sc.next = make(rpe.StateSet, w), make(rpe.StateSet, w)
	}
	return c.MatchesPathwayIn(elements, sc.cur[:w], sc.next[:w])
}

// VersionBoundaries returns, in time order and once each, every instant
// at which a version of one of objs starts or the last one closed: between
// two consecutive ones, every object's field values are constant. It
// reuses buf's storage and discards its contents.
func VersionBoundaries(buf []int64, objs []*graph.Elem) []int64 {
	buf = buf[:0]
	for _, obj := range objs {
		for _, v := range obj.Versions {
			buf = append(buf, v.Start)
		}
		if obj.End != temporal.Forever {
			buf = append(buf, obj.End)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// stableForQuery reports whether the object's satisfaction of every atom
// in the checked RPE is the same across all of its versions, so that no
// version boundary can flip the pathway's match status.
func stableForQuery(c *rpe.Checked, obj *graph.Elem) bool {
	if len(obj.Versions) == 1 {
		return true
	}
	for _, a := range c.Atoms() {
		if !obj.Class.IsSubclassOf(c.ClassOf(a)) {
			continue // the atom never matches this object in any version
		}
		first := c.Satisfies(a, obj.Class, obj.Versions[0].Rec)
		for i := 1; i < len(obj.Versions); i++ {
			if c.Satisfies(a, obj.Class, obj.Versions[i].Rec) != first {
				return false
			}
		}
	}
	return true
}
