package plan

import (
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// TestPathwaySetHashCollision forces distinct element sequences onto one
// hash: each must be kept as its own pathway, found again by find, and
// merge validity when re-added — through Add's path and through admit,
// the engine's.
func TestPathwaySetHashCollision(t *testing.T) {
	t0 := time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)
	hour := func(from, to int) temporal.Set {
		return temporal.Set{temporal.Between(t0.Add(time.Duration(from)*time.Hour), t0.Add(time.Duration(to)*time.Hour))}
	}
	const h = 42
	a, b, c := []graph.UID{1, 2, 3}, []graph.UID{4, 5, 6}, []graph.UID{1, 2, 4}
	s := NewPathwaySet()
	s.add(h, Pathway{Elems: a, Validity: hour(0, 1)})
	s.add(h, Pathway{Elems: b, Validity: hour(0, 1)})
	s.admit(h, c, hour(0, 1))
	if s.Len() != 3 {
		t.Fatalf("set size = %d after three colliding sequences, want 3", s.Len())
	}
	for i, elems := range [][]graph.UID{a, b, c} {
		j, ok := s.find(h, elems)
		if !ok || int(j) != i || !slices.Equal(s.Paths()[j].Elems, elems) {
			t.Errorf("find(%v) = %d, %v; want %d", elems, j, ok, i)
		}
	}
	if _, ok := s.find(h, []graph.UID{7, 8, 9}); ok {
		t.Error("an absent sequence under a taken hash was found")
	}

	s.add(h, Pathway{Elems: a, Validity: hour(1, 2)})
	s.add(h, Pathway{Elems: b, Validity: hour(3, 4)})
	if s.Len() != 3 {
		t.Fatalf("set size = %d after re-adding, want 3", s.Len())
	}
	if got := s.Paths()[0].Validity; len(got) != 1 || !got[0].End.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("first pathway validity = %v, want the merged 00:00-02:00", got)
	}
	if got := s.Paths()[1].Validity; len(got) != 2 {
		t.Errorf("spilled pathway validity = %v, want both disjoint ranges", got)
	}
	if got := s.Paths()[2].Validity; len(got) != 1 || !got[0].End.Equal(t0.Add(time.Hour)) {
		t.Errorf("third pathway validity = %v, want it untouched", got)
	}
}
