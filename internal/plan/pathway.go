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
	"slices"
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

// Key returns a canonical identity string over the element UIDs: what
// count(P) and the watch hub's row keys compare, and what PathwaySet's
// collision spill is keyed by.
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

// Render renders the pathway for display: Class#uid chained with arrows,
// ?uid for an element missing from the store.
func (p Pathway) Render(st *graph.Store) string {
	var sb strings.Builder
	sb.Grow(24 * len(p.Elems))
	var num [20]byte
	for i, uid := range p.Elems {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		if obj := st.Object(uid); obj == nil {
			sb.WriteByte('?')
		} else {
			sb.WriteString(obj.Class.Name)
			sb.WriteByte('#')
		}
		sb.Write(strconv.AppendInt(num[:0], int64(uid), 10))
	}
	return sb.String()
}

// PathwaySet is a deduplicated collection of pathways. Duplicate element
// sequences merge by unioning their validity sets — the true assertion
// range of a pathway is the union over all accepting runs.
type PathwaySet struct {
	// byHash indexes paths by hashElems of their elements; spill, keyed
	// by Key, holds the rare pathway whose hash an earlier one took. A
	// hit is confirmed by comparing the elements, so a collision costs a
	// spill probe, never a wrong merge.
	byHash map[uint64]int32
	spill  map[string]int32
	paths  []Pathway
	// slab backs the Elems of pathways the engine admits: one array per
	// doubling chunk instead of one per pathway.
	slab []graph.UID
}

// slabMax caps a slab chunk (in UIDs), bounding both the tail a set
// leaves unused and what a single retained Pathway can pin.
const slabMax = 4096

// NewPathwaySet returns an empty set.
func NewPathwaySet() *PathwaySet {
	return &PathwaySet{byHash: make(map[uint64]int32)}
}

// hashElems is the hash PathwaySet dedups on: each element is folded in
// through the splitmix64 finaliser, a bijection, so sequences that share
// a prefix still spread over the whole word.
func hashElems(elems []graph.UID) uint64 {
	h := uint64(len(elems)) * 0x9e3779b97f4a7c15
	for _, uid := range elems {
		h ^= uint64(uid)
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Add merges a pathway into the set.
func (s *PathwaySet) Add(p Pathway) { s.add(hashElems(p.Elems), p) }

// add is Add for elements already hashed to h.
func (s *PathwaySet) add(h uint64, p Pathway) {
	if i, ok := s.find(h, p.Elems); ok {
		s.paths[i].Validity = s.paths[i].Validity.Union(p.Validity)
		return
	}
	s.insert(h, p)
}

// find returns the index of the pathway whose elements are elems, which
// hash to h. It does not allocate unless h is a true collision.
func (s *PathwaySet) find(h uint64, elems []graph.UID) (int32, bool) {
	i, ok := s.byHash[h]
	if !ok || slices.Equal(s.paths[i].Elems, elems) {
		return i, ok
	}
	i, ok = s.spill[string(appendKey(nil, elems))]
	return i, ok
}

// insert appends a pathway find reported absent, indexing it under h.
func (s *PathwaySet) insert(h uint64, p Pathway) {
	i := int32(len(s.paths))
	if _, taken := s.byHash[h]; !taken {
		s.byHash[h] = i
	} else {
		if s.spill == nil {
			s.spill = make(map[string]int32)
		}
		s.spill[p.Key()] = i
	}
	s.paths = append(grown(s.paths, 1), p)
}

// admit inserts a pathway find reported absent. elems is scratch memory:
// the set keeps its own copy, carved from the slab with its capacity
// clipped so an append by a consumer cannot reach a neighbour.
func (s *PathwaySet) admit(h uint64, elems []graph.UID, validity temporal.Set) {
	if n := len(elems); cap(s.slab)-len(s.slab) < n {
		s.slab = make([]graph.UID, 0, max(n, min(2*cap(s.slab), slabMax)))
	}
	at := len(s.slab)
	s.slab = append(s.slab, elems...)
	s.insert(h, Pathway{Elems: s.slab[at:len(s.slab):len(s.slab)], Validity: validity})
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
