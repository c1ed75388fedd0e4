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
// the watch hub's row keys compare.
func (p Pathway) Key() string {
	b := make([]byte, 0, 8*len(p.Elems))
	for i, uid := range p.Elems {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(uid), 10)
	}
	return string(b)
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
		if obj := st.Elem(uid); obj == nil {
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
// range of a pathway is the union over all accepting runs. The zero value
// is an empty set.
type PathwaySet struct {
	paths []Pathway
	// table is the dedup index: open-addressed, probed linearly from
	// hashElems of the elements, each slot 0 (empty) or 1 + an index into
	// paths. A probe's hit is confirmed by comparing the elements, so a
	// hash collision costs a probe, never a wrong merge. find keeps it at
	// most half full. A set EvalWith returns has none until its first Add.
	table []int32
}

// NewPathwaySet returns an empty set.
func NewPathwaySet() *PathwaySet { return &PathwaySet{} }

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
	if i, slot := s.find(h, p.Elems); i >= 0 {
		s.paths[i].Validity = s.paths[i].Validity.Union(p.Validity)
	} else {
		s.insert(slot, p)
	}
}

// find returns the index of the pathway whose elements are elems, which
// hash to h, or -1 and the empty slot insert then takes. It first grows
// the table, if need be, to stay at most half full after that insert.
func (s *PathwaySet) find(h uint64, elems []graph.UID) (i int32, slot int) {
	if len(s.table) < 2*(len(s.paths)+1) {
		s.reindex()
	}
	mask := len(s.table) - 1
	for slot = int(h & uint64(mask)); ; slot = (slot + 1) & mask {
		e := s.table[slot]
		if e == 0 {
			return -1, slot
		}
		if slices.Equal(s.paths[e-1].Elems, elems) {
			return e - 1, slot
		}
	}
}

// reindex rebuilds the table at the least power of two, 16 or more, that
// holds the set's pathways and one more at most half full, reusing its
// storage when large enough.
func (s *PathwaySet) reindex() {
	size := 16
	for size < 2*(len(s.paths)+1) {
		size *= 2
	}
	if cap(s.table) >= size {
		s.table = s.table[:size]
		clear(s.table)
	} else {
		s.table = make([]int32, size)
	}
	mask := len(s.table) - 1
	for i := range s.paths {
		slot := int(hashElems(s.paths[i].Elems) & uint64(mask))
		for s.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.table[slot] = int32(i + 1)
	}
}

// insert appends a pathway find reported absent at slot.
func (s *PathwaySet) insert(slot int, p Pathway) {
	s.paths = append(s.paths, p)
	s.table[slot] = int32(len(s.paths))
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
