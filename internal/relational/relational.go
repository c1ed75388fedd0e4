// Package relational implements Nepal's relational backend, emulating the
// paper's PostgreSQL target (§5.2–5.3): one table per node and edge class
// with INHERITS-style containment, per-table hash indexes on edge source
// and target ids, TEMP-table pathway extension via bulk joins, and
// history tables behind __historical views for temporal queries.
//
// The physical property the paper's §6 ablation measures lives here: an
// Extend step whose edge atom names a specific class probes only that
// class subtree's tables (small, relevant edges only), while an Extend
// through a generic edge class with a field predicate must read every
// incident edge from every table and filter afterwards — the difference
// that took the legacy bottom-up query from 0.672s to 0.049s when 66 edge
// subclasses replaced a single class.
package relational

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/schema"
)

// Backend is the relational accessor over a temporal graph store. It
// maintains derived per-class adjacency indexes (the per-table hash
// indexes on source_id_/target_id_) incrementally.
type Backend struct {
	store *graph.Store

	mu sync.Mutex
	// bySrc and byDst map edge class name -> node uid -> edge uids, the
	// in-memory image of per-class tables indexed by endpoint.
	bySrc map[string]map[graph.UID][]graph.UID
	byDst map[string]map[graph.UID][]graph.UID
	// indexedThrough is the highest UID already folded into the indexes;
	// endpoints are immutable so edges never need reindexing.
	indexedThrough graph.UID

	// Anchor probes, unique-index lookups, and hinted vs unpruned
	// adjacency probes, counted under "backend.relational.*" in the store's
	// registry. The hinted/unpruned split makes the §6 ablation's physical
	// difference directly readable from the metrics dump: hinted probes
	// touch only one class subtree's hash indexes, unpruned probes join
	// every edge table.
	anchorProbes, uniqueLookups, hintedProbes, unprunedProbes *obs.Counter
}

// New returns a backend over the store, recording into its registry.
func New(store *graph.Store) *Backend {
	reg := store.Registry()
	return &Backend{
		store:          store,
		bySrc:          make(map[string]map[graph.UID][]graph.UID),
		byDst:          make(map[string]map[graph.UID][]graph.UID),
		anchorProbes:   reg.Counter("backend.relational.anchor_probes"),
		uniqueLookups:  reg.Counter("backend.relational.unique_lookups"),
		hintedProbes:   reg.Counter("backend.relational.hinted_probes"),
		unprunedProbes: reg.Counter("backend.relational.unpruned_probes"),
	}
}

// Name implements plan.Accessor.
func (b *Backend) Name() string { return "relational" }

// Store implements plan.Accessor.
func (b *Backend) Store() *graph.Store { return b.store }

// refreshCheckStride bounds how many UIDs an index rebuild folds between
// governor checks: large enough that the check cost vanishes against the
// map inserts, small enough that a deadline aborts a bulk rebuild within
// microseconds.
const refreshCheckStride = 1024

// refresh folds edges inserted since the last call into the per-class
// indexes. History rows stay indexed (the __history tables share the
// indexes); temporal visibility is applied at read time.
//
// The rebuild checks the governor every refreshCheckStride UIDs. On abort
// it records the portion already folded (endpoints are immutable, so
// partial progress is always consistent) and returns the governance
// error; the next refresh — typically from an ungoverned or fresh query —
// resumes where the canceled one stopped.
func (b *Backend) refresh(gov *plan.Governor) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	lo, hi := b.store.UIDRange()
	if b.indexedThrough == 0 {
		b.indexedThrough = lo - 1
	}
	for uid := b.indexedThrough + 1; uid < hi; uid++ {
		if uid%refreshCheckStride == 0 {
			if err := gov.CheckNow(); err != nil {
				b.indexedThrough = uid - 1
				return err
			}
		}
		obj := b.store.Elem(uid)
		if obj == nil || !obj.IsEdge() {
			continue
		}
		name := obj.Class.Name
		src := b.bySrc[name]
		if src == nil {
			src = make(map[graph.UID][]graph.UID)
			b.bySrc[name] = src
		}
		src[obj.Src] = append(src[obj.Src], uid)
		dst := b.byDst[name]
		if dst == nil {
			dst = make(map[graph.UID][]graph.UID)
			b.byDst[name] = dst
		}
		dst[obj.Dst] = append(dst[obj.Dst], uid)
	}
	b.indexedThrough = hi - 1
	return nil
}

// AnchorElements implements the Select operator: a unique-index probe for
// unique-field equality, otherwise a scan of each concrete class table in
// the atom's subtree (SELECT ... FROM <class>__historical WHERE ...).
func (b *Backend) AnchorElements(view graph.View, c *rpe.Checked, a *rpe.Atom, gov *plan.Governor) ([]graph.UID, error) {
	b.anchorProbes.Add(1)
	if err := gov.CheckNow(); err != nil {
		return nil, err
	}
	cls := c.ClassOf(a)
	// The relational schema keeps a dedicated uniqueness table (§5.2),
	// realized by the store's unique index.
	if elems, ok := plan.UniqueAnchor(view, cls, a); ok {
		b.uniqueLookups.Add(1)
		return elems, nil
	}
	return b.store.BySubtree(cls), nil
}

// IncidentEdges implements the Extend bulk-join access path. With a
// class-specific atom hint it probes only the hash indexes of the tables
// in that class subtree; without one it must union every edge table's
// probe for the node — the join-every-table case the ablation measures.
func (b *Backend) IncidentEdges(view graph.View, node graph.UID, dir plan.Direction, atom *rpe.Atom, c *rpe.Checked, gov *plan.Governor) ([]graph.UID, error) {
	if err := b.refresh(gov); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := b.bySrc
	if dir == plan.Backward {
		idx = b.byDst
	}
	if atom != nil {
		b.hintedProbes.Add(1)
		cls := c.ClassOf(atom)
		var out []graph.UID
		for _, name := range cls.SubtreeNames() {
			if m := idx[name]; m != nil {
				out = append(out, m[node]...)
			}
		}
		return out, nil
	}
	b.unprunedProbes.Add(1)
	var out []graph.UID
	for _, name := range schema.SortedNames(idx) {
		out = append(out, idx[name][node]...)
	}
	return out, nil
}
