package temporal

import (
	"cmp"
	"slices"
	"strings"
	"time"
)

// Set is a collection of intervals. It is the result type of When-Exists
// style temporal aggregates: the time periods during which some pathway
// satisfying a query existed. A normalized Set is sorted by start time and
// contains pairwise disjoint, non-meeting intervals — the maximal ranges
// the paper's time-range semantics require.
type Set []Interval

// Normalize sorts the set and coalesces overlapping or meeting intervals
// into maximal ranges, dropping empty intervals. The receiver is not
// modified; a new set is returned.
func (s Set) Normalize() Set {
	work := make(Set, 0, len(s))
	for _, iv := range s {
		if !iv.IsEmpty() {
			work = append(work, iv)
		}
	}
	if len(work) <= 1 {
		return work
	}
	slices.SortFunc(work, func(a, b Interval) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.End, b.End)
	})
	out := Set{work[0]}
	for _, iv := range work[1:] {
		last := &out[len(out)-1]
		if merged, ok := last.Union(iv); ok {
			*last = merged
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Contains reports whether any interval in the set contains t.
func (s Set) Contains(t int64) bool {
	for _, iv := range s {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the set covers no time points.
func (s Set) IsEmpty() bool {
	for _, iv := range s {
		if !iv.IsEmpty() {
			return false
		}
	}
	return true
}

// Overlaps reports whether the set shares a time point with the window:
// ClipTo(w) would be non-empty. It allocates nothing.
func (s Set) Overlaps(w Interval) bool {
	for _, iv := range s {
		if _, ok := iv.Intersect(w); ok {
			return true
		}
	}
	return false
}

// Intersect returns the normalized intersection of two interval sets.
func (s Set) Intersect(other Set) Set {
	a, b := s.Normalize(), other.Normalize()
	var out Set
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if iv, ok := a[i].Intersect(b[j]); ok {
			out = append(out, iv)
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Union returns the normalized union of two interval sets.
func (s Set) Union(other Set) Set {
	return append(append(Set{}, s...), other...).Normalize()
}

// ClipTo restricts the set to the window w, returning maximal subranges.
func (s Set) ClipTo(w Interval) Set {
	return s.Intersect(Set{w})
}

// First returns the earliest time point covered by the set; ok is false
// when the set is empty. It answers First-Time-When-Exists aggregates.
func (s Set) First() (int64, bool) {
	n := s.Normalize()
	if len(n) == 0 {
		return 0, false
	}
	return n[0].Start, true
}

// Last returns the supremum of the set: the end of its latest interval
// (Forever when the set is still current). ok is false when the set is
// empty. It answers Last-Time-When-Exists aggregates.
func (s Set) Last() (int64, bool) {
	n := s.Normalize()
	if len(n) == 0 {
		return 0, false
	}
	return n[len(n)-1].End, true
}

// String renders the normalized set as a comma-separated interval list.
func (s Set) String() string { return s.Format(Time) }

// Format is String with at rendering each bound (Interval.Format).
func (s Set) Format(at func(int64) time.Time) string {
	n := s.Normalize()
	parts := make([]string, len(n))
	for i, iv := range n {
		parts[i] = iv.Format(at)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
