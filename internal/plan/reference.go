package plan

import (
	"repro/internal/graph"
	"repro/internal/rpe"
)

// ReferenceEval is the executable specification of query evaluation: it
// enumerates every simple pathway in the store up to the RPE's length
// bound and keeps those whose exact validity (per ComputeValidity)
// overlaps the view window. It uses no anchors, no indexes, and no
// pruning, so it is exponentially slow — useful only on small graphs as
// the differential-testing oracle both backends are checked against.
func ReferenceEval(view graph.View, c *rpe.Checked) *PathwaySet {
	st := view.Store()
	out := NewPathwaySet()
	maxElems := c.MaxLen() + 2 // implicit endpoints

	lo, hi := st.UIDRange()
	var extend func(elems []graph.UID)
	extend = func(elems []graph.UID) {
		validity := ComputeValidity(st, c, elems)
		if !validity.IsEmpty() {
			for _, iv := range validity {
				if iv.Overlaps(view.Window()) {
					out.Add(Pathway{Elems: cloneUIDs(elems), Validity: validity})
					break
				}
			}
		}
		if len(elems) >= maxElems {
			return
		}
		tail := elems[len(elems)-1]
		for _, e := range st.OutEdges(tail) {
			eo := st.Elem(e)
			if !view.Visible(eo) {
				continue
			}
			next := append(cloneUIDs(elems), e, eo.Dst)
			if hasDuplicates(next) {
				continue
			}
			extend(next)
		}
	}
	for uid := lo; uid < hi; uid++ {
		obj := st.Elem(uid)
		if obj == nil || obj.IsEdge() || !view.Visible(obj) {
			continue
		}
		extend([]graph.UID{uid})
	}
	return out
}

func cloneUIDs(in []graph.UID) []graph.UID {
	out := make([]graph.UID, len(in))
	copy(out, in)
	return out
}
