package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/temporal"
)

// deepElem returns an element with n versions of random nanosecond
// lengths from t0; the last is open unless closed is set.
func deepElem(n int, closed bool, rng *rand.Rand) *Elem {
	e := &Elem{Versions: make([]Row, n), End: temporal.Forever}
	at := temporal.Nanos(t0)
	for i := range e.Versions {
		e.Versions[i].Start = at
		at += 1 + rng.Int63n(int64(time.Hour))
	}
	if closed {
		e.End = at
	}
	return e
}

// TestVersionAtDeep: VersionAt agrees with a linear oracle at every
// version boundary and a nanosecond either side of it, on histories from
// one version to ten thousand, open and closed. The oracle walks the
// versions once alongside the sorted probes.
func TestVersionAtDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 100, 10_000} {
		for _, closed := range []bool{false, true} {
			e := deepElem(n, closed, rng)
			probes := []int64{temporal.Forever - 1}
			for i := range e.Versions {
				p := e.Period(i)
				for _, b := range []int64{p.Start, p.End} {
					if b != temporal.Forever {
						probes = append(probes, b-1, b, b+1)
					}
				}
			}
			slices.Sort(probes)
			i := 0
			for _, at := range probes {
				for i < n && e.Period(i).End <= at {
					i++
				}
				var want *Row
				if i < n && e.Period(i).Start <= at {
					want = &e.Versions[i]
				}
				if got := e.VersionAt(at); got != want {
					t.Fatalf("%d versions (closed %v): VersionAt(%d) = %v, want %v", n, closed, at, got, want)
				}
			}
		}
	}
}

var versionSink *Row

// lookupProbes returns an open n-version element and 1024 random
// instants across its history.
func lookupProbes(n int) (*Elem, []int64) {
	rng := rand.New(rand.NewSource(int64(n)))
	e := deepElem(n, false, rng)
	lo, hi := e.Versions[0].Start, e.Versions[n-1].Start+int64(time.Hour)
	probes := make([]int64, 1024)
	for i := range probes {
		probes[i] = lo + rng.Int63n(hi-lo)
	}
	return e, probes
}

// versionAtCost returns the best of five timed passes of VersionAt over
// lookupProbes(n), per lookup.
func versionAtCost(n int) float64 {
	e, probes := lookupProbes(n)
	const lookups = 1 << 17
	best := time.Duration(1 << 62)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for i := 0; i < lookups; i++ {
			versionSink = e.VersionAt(probes[i&1023])
		}
		best = min(best, time.Since(start))
	}
	return float64(best) / lookups
}

// TestVersionAtLogarithmic: a lookup in ten thousand versions costs less
// than 20 times one in eight, where a linear scan would cost about 1,250
// times as much.
func TestVersionAtLogarithmic(t *testing.T) {
	shallow, deep := versionAtCost(8), versionAtCost(10_000)
	t.Logf("VersionAt: %.1f ns at 8 versions, %.1f ns at 10,000", shallow, deep)
	if deep >= 20*shallow {
		t.Errorf("VersionAt at 10,000 versions costs %.1f ns, %.0f× the %.1f ns at 8: it grows faster than O(log v)",
			deep, deep/shallow, shallow)
	}
}

// BenchmarkVersionAtDeep times VersionAt at random instants across a
// shallow and a deep history.
func BenchmarkVersionAtDeep(b *testing.B) {
	for _, n := range []int{8, 10_000} {
		b.Run(fmt.Sprintf("versions=%d", n), func(b *testing.B) {
			e, probes := lookupProbes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				versionSink = e.VersionAt(probes[i&1023])
			}
		})
	}
}
