package plan

import (
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

// ComputeValidity returns the maximal transaction-time ranges during which
// the pathway (a fixed element-uid sequence over evolving field values)
// satisfies the checked RPE.
//
// Field values are piecewise-constant between version boundaries, so the
// pathway's satisfaction is piecewise-constant too. Three regimes, from
// cheap to general:
//
//  1. Every element is *stable*: either single-version, or all its
//     versions agree on which atoms they satisfy (churn touched only
//     fields the query never tests). Then satisfaction cannot change
//     while all elements exist: one matcher run over the intersection of
//     the element lifetimes decides everything.
//  2. Otherwise, boundaries are collected from the unstable elements
//     only, the matcher runs once per constant-satisfaction slice, and
//     the satisfied slices union into maximal ranges — the §4 semantics,
//     where a time-range result reports the maximal range the pathway can
//     be asserted, possibly extending beyond the query window.
func ComputeValidity(st *graph.Store, c *rpe.Checked, elems []graph.UID) temporal.Set {
	return computeValidity(st, c, elems, &validityScratch{})
}

// validityScratch holds computeValidity's working arrays, so an
// evaluation pays for them once rather than once per candidate pathway.
type validityScratch struct {
	objs     []*graph.Object
	elements []rpe.Element
}

func computeValidity(st *graph.Store, c *rpe.Checked, elems []graph.UID, sc *validityScratch) temporal.Set {
	if n := len(elems); cap(sc.objs) < n {
		n = max(n, 2*cap(sc.objs))
		sc.objs, sc.elements = make([]*graph.Object, n), make([]rpe.Element, n)
	}
	objs, elements := sc.objs[:len(elems)], sc.elements[:len(elems)]
	allStable := true
	for i, uid := range elems {
		obj := st.Object(uid)
		if obj == nil {
			return nil
		}
		objs[i] = obj
		if !stableForQuery(c, obj) {
			allStable = false
		}
	}

	if allStable {
		// Lifetimes of stable elements coalesce to a single interval each
		// (updates never interrupt existence; only delete ends it, and a
		// deleted uid is never re-created).
		iv := temporal.Interval{Start: time.Time{}, End: temporal.Forever}
		for i, obj := range objs {
			life := temporal.Interval{
				Start: obj.Versions[0].Period.Start,
				End:   obj.Versions[len(obj.Versions)-1].Period.End,
			}
			var ok bool
			if iv, ok = iv.Intersect(life); !ok {
				return nil
			}
			elements[i] = rpe.Element{Class: obj.Class, Fields: obj.Versions[0].Fields}
		}
		if !c.MatchesPathway(elements) {
			return nil
		}
		return temporal.Set{iv}
	}

	boundarySet := make(map[int64]time.Time)
	for _, obj := range objs {
		for _, v := range obj.Versions {
			boundarySet[v.Period.Start.UnixNano()] = v.Period.Start
			if !v.Period.IsCurrent() {
				boundarySet[v.Period.End.UnixNano()] = v.Period.End
			}
		}
	}
	boundaries := make([]time.Time, 0, len(boundarySet))
	for _, t := range boundarySet {
		boundaries = append(boundaries, t)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i].Before(boundaries[j]) })

	var out temporal.Set
	appendIfSatisfied := func(iv temporal.Interval, probe time.Time) {
		for i, obj := range objs {
			ver := obj.VersionAt(probe)
			if ver == nil {
				return
			}
			elements[i] = rpe.Element{Class: obj.Class, Fields: ver.Fields}
		}
		if c.MatchesPathway(elements) {
			out = append(out, iv)
		}
	}
	for i := 0; i < len(boundaries); i++ {
		start := boundaries[i]
		var iv temporal.Interval
		if i+1 < len(boundaries) {
			iv = temporal.Between(start, boundaries[i+1])
		} else {
			iv = temporal.Current(start)
		}
		appendIfSatisfied(iv, start)
	}
	return out.Normalize()
}

// stableForQuery reports whether the object's satisfaction of every atom
// in the checked RPE is the same across all of its versions, so that no
// version boundary can flip the pathway's match status.
func stableForQuery(c *rpe.Checked, obj *graph.Object) bool {
	if len(obj.Versions) == 1 {
		return true
	}
	for _, a := range c.Atoms() {
		if !obj.Class.IsSubclassOf(c.ClassOf(a)) {
			continue // the atom never matches this object in any version
		}
		first := c.Satisfies(a, obj.Class, obj.Versions[0].Fields)
		for i := 1; i < len(obj.Versions); i++ {
			if c.Satisfies(a, obj.Class, obj.Versions[i].Fields) != first {
				return false
			}
		}
	}
	return true
}
