package plan

import (
	"sort"

	"repro/internal/rpe"
	"repro/internal/schema"
)

// ClassFootprint returns the sorted, deduplicated set of class names a
// set of checked pathway expressions can possibly match: every atom's
// declared class expanded to its full subclass subtree (an atom labeled
// with an abstract class matches any concrete descendant), and every
// class of sch of a kind an expression's pathways can hold at a position
// no atom consumes (freeKinds) — a bridge's skipped element, or the
// implicit endpoint of a leading or trailing edge atom, of any class,
// whose deletion (with its incident edges) or field change a query still
// sees. It is the invalidation filter for standing queries — a mutation
// whose class is outside the footprint cannot change any pathway these
// expressions accept, so the result set provably did not change.
func ClassFootprint(sch *schema.Schema, cs ...*rpe.Checked) []string {
	seen := map[string]struct{}{}
	add := func(cls *schema.Class) {
		for _, name := range cls.SubtreeNames() {
			seen[name] = struct{}{}
		}
	}
	for _, c := range cs {
		if c == nil {
			continue
		}
		for _, a := range c.Atoms() {
			if cls := c.ClassOf(a); cls != nil {
				add(cls)
			}
		}
		edges, nodes := freeKinds(c)
		if edges {
			add(sch.MustClass(schema.EdgeRoot))
		}
		if nodes {
			add(sch.MustClass(schema.NodeRoot))
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
