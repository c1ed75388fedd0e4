// Package temporal implements the transaction-time machinery that underlies
// Nepal's time-travel queries: half-open validity intervals with an
// open-ended "still current" upper bound, interval intersection, and
// maximal-range coalescing of interval sets.
//
// Every node and edge version in a Nepal graph carries an Interval (its
// sys_period, in the vocabulary of the temporal_tables Postgres extension
// the paper builds on). A pathway's validity range is the intersection of
// the ranges of its constituent node and edge versions, and a time-range
// query reports the maximal such ranges.
//
// Inside the engine a transaction time is an int64 of Unix nanoseconds,
// the form the WAL and the checkpoint already store, so a visibility test
// is an integer compare. A time.Time appears only at the API edge, where
// Nanos converts a caller's time in and Time renders one out, once per
// request. Forever, the open upper bound, is math.MaxInt64 inside and
// renders as 9999-12-31 23:59:59 UTC outside.
package temporal

import (
	"fmt"
	"math"
	"time"
)

// Layout is the one spelling the system writes a timestamp in: AT
// literals, rendered intervals and aggregate times. Parse reads it back.
const Layout = "2006-01-02 15:04:05"

// layouts are the spellings Parse accepts, tried in order.
var layouts = [...]string{Layout, "2006-01-02 15:04", "2006-01-02", time.RFC3339}

// Parse reads a timestamp literal: Layout, Layout without its seconds,
// a bare date, all three in UTC, or RFC 3339 (fractional seconds
// allowed). Every edge that takes a timestamp parses it here: an AT or
// @ literal, a literal bound into a prepared statement, a request's
// min_timestamp and a timestamp field's value.
func Parse(s string) (time.Time, error) {
	for _, layout := range layouts {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("cannot parse timestamp %q", s)
}

// Forever is the sentinel upper bound for intervals that are still current.
// No transaction time reaches it: Nanos saturates every instant past the
// int64 range at Forever−1.
const Forever int64 = math.MaxInt64

// foreverTime is how Forever renders at the API edge, and the earliest
// time.Time that Nanos maps to it.
var foreverTime = time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)

// The int64 nanosecond range as times: about 1677-09-21 to 2262-04-11.
var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// Nanos converts t to Unix nanoseconds, saturating: a time at or past
// foreverTime is Forever, any other time past the int64 range is
// Forever−1, and a time before it is math.MinInt64. Comparisons keep
// their answers, so a query literal outside the range sees what it did
// as a time.Time.
func Nanos(t time.Time) int64 {
	switch {
	case !t.Before(foreverTime):
		return Forever
	case !t.Before(maxTime):
		return Forever - 1
	case t.Before(minTime):
		return math.MinInt64
	}
	return t.UnixNano()
}

// Time renders ns as a UTC time: Forever as foreverTime, anything else
// as time.Unix(0, ns).
func Time(ns int64) time.Time {
	if ns == Forever {
		return foreverTime
	}
	return time.Unix(0, ns).UTC()
}

// Add returns t+d, saturating at math.MinInt64 and Forever.
func Add(t int64, d time.Duration) int64 {
	s := t + int64(d)
	switch {
	case d > 0 && s < t:
		return Forever
	case d < 0 && s > t:
		return math.MinInt64
	}
	return s
}

// Interval is a half-open transaction-time range [Start, End) in Unix
// nanoseconds. An interval with End equal to Forever is current: the fact
// it stamps has been inserted (or last updated) at Start and not yet
// deleted or superseded.
type Interval struct {
	Start int64
	End   int64
}

// Current returns an open-ended interval starting at start.
func Current(start int64) Interval {
	return Interval{Start: start, End: Forever}
}

// Between returns the interval [start, end).
func Between(start, end int64) Interval {
	return Interval{Start: start, End: end}
}

// IsCurrent reports whether the interval is still open (End == Forever).
func (iv Interval) IsCurrent() bool {
	return iv.End == Forever
}

// IsEmpty reports whether the interval contains no time points.
func (iv Interval) IsEmpty() bool {
	return iv.Start >= iv.End
}

// Contains reports whether t lies within [Start, End).
func (iv Interval) Contains(t int64) bool {
	return iv.Start <= t && t < iv.End
}

// Overlaps reports whether the two intervals share at least one point.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Meets reports whether iv ends exactly where other starts.
func (iv Interval) Meets(other Interval) bool {
	return iv.End == other.Start
}

// Intersect returns the overlap of the two intervals. The second return
// value is false when the intervals are disjoint.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	out := Interval{Start: max(iv.Start, other.Start), End: min(iv.End, other.End)}
	if out.IsEmpty() {
		return Interval{}, false
	}
	return out, true
}

// Union returns the smallest interval covering both intervals when they
// overlap or meet; ok is false when they are separated by a gap.
func (iv Interval) Union(other Interval) (Interval, bool) {
	if !iv.Overlaps(other) && !iv.Meets(other) && !other.Meets(iv) {
		return Interval{}, false
	}
	return Interval{Start: min(iv.Start, other.Start), End: max(iv.End, other.End)}, true
}

// Equal reports whether the two intervals have identical bounds.
func (iv Interval) Equal(other Interval) bool {
	return iv == other
}

// Duration returns the length of the interval; open intervals report the
// duration up to the supplied now. A length past time.Duration's range
// saturates.
func (iv Interval) Duration(now int64) time.Duration {
	end := iv.End
	if iv.IsCurrent() && now < iv.End {
		end = now
	}
	if end < iv.Start {
		return 0
	}
	if d := uint64(end) - uint64(iv.Start); d <= math.MaxInt64 {
		return time.Duration(d)
	}
	return math.MaxInt64
}

// String renders the interval using the paper's result notation:
// [start, end] for closed history rows and [start, ] for current rows.
func (iv Interval) String() string { return iv.Format(Time) }

// Format is String with at rendering each bound. An end that renders as
// Forever's time is open.
func (iv Interval) Format(at func(int64) time.Time) string {
	start, end := at(iv.Start).Format(Layout), at(iv.End)
	if Nanos(end) == Forever {
		return fmt.Sprintf("[%s, ]", start)
	}
	return fmt.Sprintf("[%s, %s]", start, end.Format(Layout))
}
