package temporal

import (
	"math"
	"testing"
	"time"
)

// FuzzTimeBounds converts an arbitrary (seconds, nanoseconds) time with
// Nanos and checks the edge conversion's contract: it is monotone, it
// saturates (MinInt64 before 1678, Forever−1 past 2262, Forever at and
// past the 9999-12-31 sentinel), Time(Nanos(t)) is t inside the int64
// range, and the Forever sentinel round-trips.
func FuzzTimeBounds(f *testing.F) {
	for _, t := range []time.Time{
		minTime, minTime.Add(-1), minTime.Add(1),
		maxTime, maxTime.Add(-1), maxTime.Add(1),
		foreverTime, foreverTime.Add(-1), foreverTime.Add(1),
		time.Date(1677, 9, 21, 0, 12, 43, 145224191, time.UTC),
		time.Date(2262, 4, 11, 23, 47, 16, 854775808, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC),
	} {
		f.Add(t.Unix(), int64(t.Nanosecond()))
	}
	if Time(Forever) != foreverTime || Nanos(Time(Forever)) != Forever {
		f.Fatalf("Forever renders as %v and reads back as %d", Time(Forever), Nanos(Time(Forever)))
	}
	f.Fuzz(func(t *testing.T, sec, nsec int64) {
		// Keep t inside what time.Time itself represents without wrapping.
		sec %= 1 << 61
		at := time.Unix(sec, nsec)
		ns := Nanos(at)
		switch {
		case !at.Before(foreverTime):
			if ns != Forever {
				t.Fatalf("Nanos(%v) = %d, want Forever", at, ns)
			}
		case !at.Before(maxTime):
			if ns != Forever-1 {
				t.Fatalf("Nanos(%v) = %d, want Forever-1", at, ns)
			}
		case at.Before(minTime):
			if ns != math.MinInt64 {
				t.Fatalf("Nanos(%v) = %d, want MinInt64", at, ns)
			}
		default:
			if back := Time(ns); !back.Equal(at) || back.Location() != time.UTC {
				t.Fatalf("Time(Nanos(%v)) = %v", at, back)
			}
		}
		if ns == Forever && !Time(ns).Equal(foreverTime) {
			t.Fatalf("Forever renders as %v", Time(ns))
		}
		for _, d := range []time.Duration{1, time.Second, 100 * 365 * 24 * time.Hour} {
			if before, after := Nanos(at.Add(-d)), Nanos(at.Add(d)); before > ns || ns > after {
				t.Fatalf("Nanos is not monotone around %v: %d, %d, %d", at, before, ns, after)
			}
		}
		for _, edge := range []time.Time{minTime, maxTime, foreverTime} {
			if e := Nanos(edge); at.Before(edge) && ns > e || at.After(edge) && ns < e {
				t.Fatalf("Nanos orders %v (%d) and %v (%d) apart from their times", at, ns, edge, e)
			}
		}
	})
}
