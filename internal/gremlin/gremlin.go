// Package gremlin implements Nepal's property-graph backend. It emulates
// the paper's Gremlin target (§5.2): every element carries its inheritance
// path as its label (e.g. Node:Container:VM:VMWare) and polymorphic class
// matching is label-prefix matching; adjacency is a single per-node edge
// list with no class partitioning, so traversals examine every incident
// edge and filter afterwards — exactly the behavior whose cost the
// relational per-class partitioning ablation (§6) contrasts.
//
// Gremlin client libraries for Go are thin, so rather than driving an
// external TinkerPop server the traversal engine is embedded; the
// generated Gremlin query text for a plan is available via
// internal/codegen for inspection.
package gremlin

import (
	"strings"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/schema"
)

// Backend is the Gremlin-style accessor over a temporal graph store.
type Backend struct {
	store *graph.Store

	// Anchor probes, unique-index lookups and adjacency probes, counted
	// under "backend.gremlin.*" in the store's registry.
	anchorProbes, uniqueLookups, edgeProbes *obs.Counter
}

// New returns a backend over the store, recording into its registry.
func New(store *graph.Store) *Backend {
	reg := store.Registry()
	return &Backend{
		store:         store,
		anchorProbes:  reg.Counter("backend.gremlin.anchor_probes"),
		uniqueLookups: reg.Counter("backend.gremlin.unique_lookups"),
		edgeProbes:    reg.Counter("backend.gremlin.edge_probes"),
	}
}

// Name implements plan.Accessor.
func (b *Backend) Name() string { return "gremlin" }

// Store implements plan.Accessor.
func (b *Backend) Store() *graph.Store { return b.store }

// Label returns the Gremlin label of a class: its inheritance path.
func Label(c *schema.Class) string { return c.Path() }

// LabelMatches reports whether an element labeled with elemLabel belongs
// to the class subtree rooted at query label — prefix matching per §5.2.
func LabelMatches(queryLabel, elemLabel string) bool {
	if !strings.HasPrefix(elemLabel, queryLabel) {
		return false
	}
	return len(elemLabel) == len(queryLabel) || elemLabel[len(queryLabel)] == ':'
}

// AnchorElements implements the Select operator: a unique-index hit when
// the atom pins a unique field with equality (TinkerPop-style id index),
// otherwise a label-prefix scan over the per-label element lists. The
// label scan checks the governor once per class partition, so a canceled
// query aborts mid-scan instead of materializing the whole anchor set.
func (b *Backend) AnchorElements(view graph.View, c *rpe.Checked, a *rpe.Atom, gov *plan.Governor) ([]graph.UID, error) {
	b.anchorProbes.Add(1)
	if err := gov.CheckNow(); err != nil {
		return nil, err
	}
	cls := c.ClassOf(a)
	if elems, ok := plan.UniqueAnchor(view, cls, a); ok {
		b.uniqueLookups.Add(1)
		return elems, nil
	}
	queryLabel := Label(cls)
	var out []graph.UID
	for _, cand := range b.store.Schema().Classes() {
		if err := gov.Check(); err != nil {
			return nil, err
		}
		if cand.Kind != cls.Kind || !LabelMatches(queryLabel, Label(cand)) {
			continue
		}
		out = append(out, b.store.ByClass(cand.Name)...)
	}
	return out, nil
}

// IncidentEdges implements the Extend operator's physical access: the full
// unpartitioned adjacency list. The atom hint is deliberately ignored —
// a property-graph traversal visits every incident edge and filters by
// label afterwards. One governor check per probe keeps a canceled query
// from queueing further adjacency reads.
func (b *Backend) IncidentEdges(view graph.View, node graph.UID, dir plan.Direction, _ *rpe.Atom, _ *rpe.Checked, gov *plan.Governor) ([]graph.UID, error) {
	b.edgeProbes.Add(1)
	if err := gov.CheckNow(); err != nil {
		return nil, err
	}
	if dir == plan.Forward {
		return b.store.OutEdges(node), nil
	}
	return b.store.InEdges(node), nil
}
