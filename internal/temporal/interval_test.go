package temporal

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var base = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func at(h int) int64 { return Nanos(base.Add(time.Duration(h) * time.Hour)) }

func TestIntervalContains(t *testing.T) {
	iv := Between(at(1), at(5))
	cases := []struct {
		t    int64
		want bool
	}{
		{at(0), false},
		{at(1), true}, // closed lower bound
		{at(3), true},
		{at(5), false}, // open upper bound
		{at(9), false},
	}
	for _, c := range cases {
		if got := iv.Contains(c.t); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestIntervalCurrent(t *testing.T) {
	iv := Current(at(2))
	if !iv.IsCurrent() {
		t.Fatal("Current interval not reported current")
	}
	if !iv.Contains(at(1000000)) {
		t.Error("current interval should contain any future time")
	}
	if iv.Contains(at(1)) {
		t.Error("current interval should not contain times before start")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Between(at(1), at(5))
	b := Between(at(3), at(8))
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(Between(at(3), at(5))) {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	if _, ok := a.Intersect(Between(at(5), at(6))); ok {
		t.Error("touching intervals must not intersect (half-open)")
	}
	if _, ok := a.Intersect(Between(at(7), at(9))); ok {
		t.Error("disjoint intervals must not intersect")
	}
}

func TestIntervalUnion(t *testing.T) {
	a := Between(at(1), at(5))
	if got, ok := a.Union(Between(at(5), at(7))); !ok || !got.Equal(Between(at(1), at(7))) {
		t.Errorf("meeting union = %v, %v", got, ok)
	}
	if got, ok := a.Union(Between(at(2), at(3))); !ok || !got.Equal(a) {
		t.Errorf("contained union = %v, %v", got, ok)
	}
	if _, ok := a.Union(Between(at(6), at(7))); ok {
		t.Error("gapped union must fail")
	}
}

func TestIntervalEmpty(t *testing.T) {
	if !Between(at(5), at(5)).IsEmpty() {
		t.Error("zero-width interval should be empty")
	}
	if !Between(at(5), at(3)).IsEmpty() {
		t.Error("inverted interval should be empty")
	}
	if Between(at(3), at(5)).IsEmpty() {
		t.Error("proper interval should not be empty")
	}
}

func TestIntervalDuration(t *testing.T) {
	if d := Between(at(1), at(4)).Duration(at(100)); d != 3*time.Hour {
		t.Errorf("closed duration = %v", d)
	}
	if d := Current(at(1)).Duration(at(4)); d != 3*time.Hour {
		t.Errorf("open duration clipped to now = %v", d)
	}
}

func TestIntervalString(t *testing.T) {
	if s := Between(at(1), at(2)).String(); s != "[2017-02-15 01:00:00, 2017-02-15 02:00:00]" {
		t.Errorf("String = %q", s)
	}
	if s := Current(at(1)).String(); s != "[2017-02-15 01:00:00, ]" {
		t.Errorf("current String = %q", s)
	}
}

func TestSetNormalizeCoalesces(t *testing.T) {
	s := Set{
		Between(at(4), at(6)),
		Between(at(1), at(3)),
		Between(at(2), at(4)), // meets+overlaps: everything from 1 to 6 merges
		Between(at(8), at(9)),
		Between(at(7), at(7)), // empty, dropped
	}
	got := s.Normalize()
	want := Set{Between(at(1), at(6)), Between(at(8), at(9))}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
}

func TestSetIntersect(t *testing.T) {
	a := Set{Between(at(1), at(5)), Between(at(8), at(12))}
	b := Set{Between(at(3), at(9))}
	got := a.Intersect(b)
	want := Set{Between(at(3), at(5)), Between(at(8), at(9))}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
}

func TestSetFirstLast(t *testing.T) {
	s := Set{Between(at(8), at(9)), Between(at(1), at(2))}
	if first, ok := s.First(); !ok || first != at(1) {
		t.Errorf("First = %v, %v", first, ok)
	}
	if last, ok := s.Last(); !ok || last != at(9) {
		t.Errorf("Last = %v, %v", last, ok)
	}
	if _, ok := (Set{}).First(); ok {
		t.Error("empty set must have no First")
	}
}

func TestSetClipTo(t *testing.T) {
	s := Set{Between(at(1), at(10))}
	got := s.ClipTo(Between(at(4), at(6)))
	if !reflect.DeepEqual(got, Set{Between(at(4), at(6))}) {
		t.Errorf("ClipTo = %v", got)
	}
}

// randInterval builds a small random interval for property tests.
func randInterval(r *rand.Rand) Interval {
	a, b := r.Intn(50), r.Intn(50)
	if a > b {
		a, b = b, a
	}
	return Between(at(a), at(b+1))
}

func randSet(r *rand.Rand) Set {
	n := r.Intn(6)
	s := make(Set, n)
	for i := range s {
		s[i] = randInterval(r)
	}
	return s
}

// Generate makes Set usable with testing/quick.
func (Set) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randSet(r))
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(s Set) bool {
		n := s.Normalize()
		return reflect.DeepEqual(n, n.Normalize())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizePreservesMembership(t *testing.T) {
	f := func(s Set) bool {
		n := s.Normalize()
		for h := 0; h < 55; h++ {
			if s.Contains(at(h)) != n.Contains(at(h)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeMaximal(t *testing.T) {
	// No two intervals in a normalized set may overlap or meet: each range
	// must be maximal, as the paper's time-range query semantics require.
	f := func(s Set) bool {
		n := s.Normalize()
		for i := 1; i < len(n); i++ {
			if n[i-1].Overlaps(n[i]) || n[i-1].Meets(n[i]) {
				return false
			}
			if n[i-1].Start >= n[i].Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectCommutative(t *testing.T) {
	f := func(a, b Set) bool {
		return reflect.DeepEqual(a.Intersect(b), b.Intersect(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectSound(t *testing.T) {
	f := func(a, b Set) bool {
		got := a.Intersect(b)
		for h := 0; h < 55; h++ {
			want := a.Contains(at(h)) && b.Contains(at(h))
			if got.Contains(at(h)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Overlaps is the allocation-free form of "ClipTo is non-empty" the
// executor's row filter relies on; windows include empty and inverted ones.
func TestQuickOverlapsAgreesWithClipTo(t *testing.T) {
	f := func(s Set, from, to uint8) bool {
		w := Between(at(int(from%55)), at(int(to%55)))
		return s.Overlaps(w) == !s.ClipTo(w).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionSound(t *testing.T) {
	f := func(a, b Set) bool {
		got := a.Union(b)
		for h := 0; h < 55; h++ {
			want := a.Contains(at(h)) || b.Contains(at(h))
			if got.Contains(at(h)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectDistributesOverUnion(t *testing.T) {
	f := func(a, b, c Set) bool {
		left := a.Intersect(b.Union(c)).Normalize()
		right := a.Intersect(b).Union(a.Intersect(c)).Normalize()
		return reflect.DeepEqual(left, right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// next is c.Next for a clock that has stamps left.
func next(t *testing.T, c *Clock) int64 {
	t.Helper()
	ts, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestClockMonotonic(t *testing.T) {
	c := &Clock{}
	prev := next(t, c)
	for i := 0; i < 1000; i++ {
		next := next(t, c)
		if next <= prev {
			t.Fatalf("clock went backwards: %v then %v", prev, next)
		}
		prev = next
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(base)
	t1 := next(t, c)
	if t1 != at(0) {
		t.Fatalf("first tick = %v", t1)
	}
	t2 := next(t, c)
	if t2 <= t1 {
		t.Fatal("manual clock must still be strictly monotonic")
	}
	c.Advance(time.Hour)
	t3 := next(t, c)
	if t3 != at(1) {
		t.Fatalf("after Advance tick = %v", t3)
	}
	if c.Now() < t3 {
		t.Error("Now must not run behind issued timestamps")
	}
}

func TestClockNextConcurrent(t *testing.T) {
	c := NewManualClock(base)
	const n = 100
	ch := make(chan int64, n)
	for i := 0; i < n; i++ {
		go func() { ts, _ := c.Next(); ch <- ts }()
	}
	seen := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		ts := <-ch
		if seen[ts] {
			t.Fatal("duplicate timestamp issued concurrently")
		}
		seen[ts] = true
	}
}

// TestClockExhausted: a clock at the end of the int64 range issues its
// last stamp below Forever, then refuses instead of repeating Forever.
func TestClockExhausted(t *testing.T) {
	c := NewManualClock(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC))
	if ts := next(t, c); ts != Forever-1 {
		t.Fatalf("first stamp past 2262 = %d, want Forever-1", ts)
	}
	for range 2 {
		if ts, err := c.Next(); !errors.Is(err, ErrExhausted) {
			t.Fatalf("stamp after Forever-1 = %d, %v; want ErrExhausted", ts, err)
		}
	}
	if c.Latest() != Forever-1 {
		t.Errorf("Latest = %d after refusals, want Forever-1", c.Latest())
	}
	c = NewManualClock(foreverTime)
	if _, err := c.Next(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("clock pinned at Forever issued a stamp: %v", err)
	}
	c = NewManualClock(base)
	c.EnsureAfter(Forever - 1)
	if _, err := c.Next(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("clock ensured past Forever-1 issued a stamp: %v", err)
	}
}
