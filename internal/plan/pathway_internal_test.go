package plan

import (
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// TestPathwaySetHashCollision forces distinct element sequences onto one
// probe chain of the dedup table: each must be kept as its own pathway and
// found again, and a re-add must merge validity. It builds a set the way
// an evaluation does — find, admit, seal — with three sequences given one
// hash, then adds to the sealed set, which has no table until then, the
// way a caller adds to a set EvalWith returned: two re-adds, and two
// sequences whose own hashes pick the same slot of the 16-slot table.
func TestPathwaySetHashCollision(t *testing.T) {
	t0 := time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)
	hour := func(from, to int) temporal.Set {
		return temporal.Set{temporal.Between(temporal.Nanos(t0.Add(time.Duration(from)*time.Hour)), temporal.Nanos(t0.Add(time.Duration(to)*time.Hour)))}
	}
	const h = 42
	a, b, c := []graph.UID{1, 2, 3}, []graph.UID{4, 5, 6}, []graph.UID{1, 2, 4}
	es := getEvalState(nil)
	for _, elems := range [][]graph.UID{a, b, c} {
		i, slot := es.out.find(h, elems)
		if i >= 0 {
			t.Fatalf("find(%v) = %d in a set without it", elems, i)
		}
		es.admit(slot, elems, hour(0, 1))
	}
	for i, elems := range [][]graph.UID{a, b, c} {
		if j, _ := es.out.find(h, elems); int(j) != i {
			t.Errorf("find(%v) = %d while building, want %d", elems, j, i)
		}
	}
	if j, _ := es.out.find(h, []graph.UID{7, 8, 9}); j >= 0 {
		t.Errorf("an absent sequence under a taken hash was found at %d", j)
	}
	s := es.seal()
	putEvalState(es)

	var same [][]graph.UID // sequences whose hash picks a's slot
	for x := graph.UID(100); len(same) < 2; x++ {
		if elems := []graph.UID{x, x + 1, x + 2}; hashElems(elems)&15 == hashElems(a)&15 {
			same = append(same, elems)
		}
	}
	s.Add(Pathway{Elems: a, Validity: hour(1, 2)})
	s.Add(Pathway{Elems: same[0], Validity: hour(0, 1)})
	s.Add(Pathway{Elems: b, Validity: hour(3, 4)})
	s.Add(Pathway{Elems: same[1], Validity: hour(0, 1)})
	if s.Len() != 5 || len(s.table) != 16 {
		t.Fatalf("set size = %d in a %d-slot table after two re-adds and two adds, want 5 in 16", s.Len(), len(s.table))
	}
	for i, elems := range [][]graph.UID{a, b, c, same[0], same[1]} {
		j, _ := s.find(hashElems(elems), elems)
		if int(j) != i || !slices.Equal(s.Paths()[j].Elems, elems) {
			t.Errorf("find(%v) = %d, want %d", elems, j, i)
		}
	}
	if got := s.Paths()[0].Validity; len(got) != 1 || got[0].End != temporal.Nanos(t0.Add(2*time.Hour)) {
		t.Errorf("first pathway validity = %v, want the merged 00:00-02:00", got)
	}
	if got := s.Paths()[1].Validity; len(got) != 2 {
		t.Errorf("second pathway validity = %v, want both disjoint ranges", got)
	}
	if got := s.Paths()[2].Validity; len(got) != 1 || got[0].End != temporal.Nanos(t0.Add(time.Hour)) {
		t.Errorf("third pathway validity = %v, want it untouched", got)
	}
}
