// Package plan turns a checked RPE plus a chosen anchor into an executable
// query plan, and implements the anchored bidirectional search engine that
// both backends share. Backends differ only in physical access — how
// anchor records are located and how a node's incident edges are retrieved
// — which they provide through the Accessor interface (the Gremlin backend
// scans labeled adjacency; the relational backend probes per-class tables
// and hash indexes, which is what the paper's edge-subclassing ablation
// measures).
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// Pathway is Nepal's first-class query result: an alternating sequence of
// node and edge UIDs, n1,e1,...,nk, with the maximal transaction-time
// ranges during which the pathway satisfied the query.
type Pathway struct {
	// Elems holds the element UIDs in pathway order; even positions are
	// nodes, odd positions are edges.
	Elems []graph.UID
	// Validity holds the maximal assertion ranges (§4): the normalized
	// union over accepting runs of the intersection of the per-element
	// match periods.
	Validity temporal.Set
}

// Source returns the first node of the pathway.
func (p Pathway) Source() graph.UID { return p.Elems[0] }

// Target returns the last node of the pathway.
func (p Pathway) Target() graph.UID { return p.Elems[len(p.Elems)-1] }

// Len returns the number of elements (nodes + edges).
func (p Pathway) Len() int { return len(p.Elems) }

// Hops returns the number of edges in the pathway.
func (p Pathway) Hops() int { return len(p.Elems) / 2 }

// Key returns a canonical identity string over the element UIDs, used for
// deduplication and set semantics.
func (p Pathway) Key() string {
	return string(appendKey(make([]byte, 0, 8*len(p.Elems)), p.Elems))
}

// appendKey appends the Key of an element sequence to dst.
func appendKey(dst []byte, elems []graph.UID) []byte {
	for i, uid := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(uid), 10)
	}
	return dst
}

// String renders the pathway for display: uid(Class) chained with arrows.
func (p Pathway) Render(st *graph.Store) string {
	var sb strings.Builder
	for i, uid := range p.Elems {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		obj := st.Object(uid)
		if obj == nil {
			fmt.Fprintf(&sb, "?%d", uid)
			continue
		}
		fmt.Fprintf(&sb, "%s#%d", obj.Class.Name, uid)
	}
	return sb.String()
}

// PathwaySet is a deduplicated collection of pathways. Duplicate element
// sequences merge by unioning their validity sets — the true assertion
// range of a pathway is the union over all accepting runs.
type PathwaySet struct {
	byKey map[string]int
	paths []Pathway
	// slab backs the Elems of pathways the engine admits: one array per
	// doubling chunk instead of one per pathway.
	slab []graph.UID
}

// slabMax caps a slab chunk (in UIDs), bounding both the tail a set
// leaves unused and what a single retained Pathway can pin.
const slabMax = 4096

// NewPathwaySet returns an empty set.
func NewPathwaySet() *PathwaySet {
	return &PathwaySet{byKey: make(map[string]int)}
}

// Add merges a pathway into the set.
func (s *PathwaySet) Add(p Pathway) {
	key := p.Key()
	if i, ok := s.byKey[key]; ok {
		s.paths[i].Validity = s.paths[i].Validity.Union(p.Validity)
		return
	}
	s.byKey[key] = len(s.paths)
	s.paths = append(s.paths, p)
}

// Has reports whether a pathway with the given Key is already present.
func (s *PathwaySet) Has(key string) bool {
	_, ok := s.byKey[key]
	return ok
}

// hasKey is Has for a key still in a scratch buffer; the lookup does not
// allocate.
func (s *PathwaySet) hasKey(key []byte) bool {
	_, ok := s.byKey[string(key)]
	return ok
}

// addKeyed admits a pathway the caller knows to be absent (hasKey), under
// the key it already built. elems and key are scratch memory: the set
// keeps its own copies, the elements carved from the slab with their
// capacity clipped so an append by a consumer cannot reach a neighbour.
func (s *PathwaySet) addKeyed(key []byte, elems []graph.UID, validity temporal.Set) {
	if n := len(elems); cap(s.slab)-len(s.slab) < n {
		s.slab = make([]graph.UID, 0, max(n, min(2*cap(s.slab), slabMax)))
	}
	at := len(s.slab)
	s.slab = append(s.slab, elems...)
	s.byKey[string(key)] = len(s.paths)
	s.paths = append(grown(s.paths, 1), Pathway{Elems: s.slab[at:len(s.slab):len(s.slab)], Validity: validity})
}

// Paths returns the pathways in insertion order.
func (s *PathwaySet) Paths() []Pathway { return s.paths }

// Len returns the number of distinct pathways.
func (s *PathwaySet) Len() int { return len(s.paths) }

// SharedElements returns the element UIDs common to every pathway in the
// set — the shared-fate primitive of §2.3.2: when troubleshooting
// service-quality issues for several customers, the elements their data
// flows share are the prime suspects. Returns nil for an empty input.
func SharedElements(paths []Pathway) []graph.UID {
	if len(paths) == 0 {
		return nil
	}
	shared := make(map[graph.UID]bool, len(paths[0].Elems))
	for _, uid := range paths[0].Elems {
		shared[uid] = true
	}
	for _, p := range paths[1:] {
		present := make(map[graph.UID]bool, len(p.Elems))
		for _, uid := range p.Elems {
			present[uid] = true
		}
		for uid := range shared {
			if !present[uid] {
				delete(shared, uid)
			}
		}
	}
	out := make([]graph.UID, 0, len(shared))
	for _, uid := range paths[0].Elems { // deterministic order
		if shared[uid] {
			out = append(out, uid)
		}
	}
	return out
}
