package graph

import (
	"time"

	"repro/internal/schema"
	"repro/internal/temporal"
)

// View selects which temporal slice of a Store a query runs against.
//
// A point view (AT t, or the implicit "current snapshot") admits objects
// whose visible version at t satisfies the query. A range view
// (AT t1 : t2) admits objects that satisfy the query at some moment inside
// the window; per §4, the validity ranges reported for results are the
// *maximal* ranges in the database, which may extend beyond the window.
//
// A view holds its instant and window in Unix nanoseconds; the
// constructors taking a time.Time convert once, at the API edge.
type View struct {
	store  *Store
	window temporal.Interval
	point  bool
	at     int64
}

// PointView returns a view of the database as of transaction time t.
func PointView(st *Store, t time.Time) View { return PointViewAt(st, temporal.Nanos(t)) }

// PointViewAt is PointView at t in Unix nanoseconds.
func PointViewAt(st *Store, t int64) View {
	return View{store: st, point: true, at: t, window: temporal.Between(t, temporal.Add(t, time.Nanosecond))}
}

// CurrentView returns a view of the current snapshot.
func CurrentView(st *Store) View { return PointViewAt(st, st.clock.Now()) }

// RangeView returns a view selecting over the window [t1, t2).
func RangeView(st *Store, t1, t2 time.Time) View {
	return WindowView(st, temporal.Between(temporal.Nanos(t1), temporal.Nanos(t2)))
}

// WindowView is RangeView over a window in Unix nanoseconds.
func WindowView(st *Store, w temporal.Interval) View {
	return View{store: st, window: w}
}

// Store returns the underlying store.
func (v View) Store() *Store { return v.store }

// IsPoint reports whether the view is a point (timeslice) view.
func (v View) IsPoint() bool { return v.point }

// At returns the timeslice instant of a point view, in Unix nanoseconds.
func (v View) At() int64 { return v.at }

// Window returns the selection window (for a point view, the degenerate
// nanosecond window at the instant).
func (v View) Window() temporal.Interval { return v.window }

// Visible reports whether the object exists anywhere in the view's window,
// regardless of field values. It is the allocation-free fast path the
// execution engines call per candidate element.
func (v View) Visible(obj *Elem) bool {
	if v.point {
		return obj.VersionAt(v.at) != nil
	}
	for i := range obj.Versions {
		if obj.Period(i).Overlaps(v.window) {
			return true
		}
	}
	return false
}

// RecordAt returns a representative record for result rendering: the
// version at the point instant, or the latest version overlapping the
// window for a range view.
func (v View) RecordAt(obj *Elem) schema.Record {
	if v.point {
		if ver := obj.VersionAt(v.at); ver != nil {
			return ver.Rec
		}
		return nil
	}
	for i := len(obj.Versions) - 1; i >= 0; i-- {
		if obj.Period(i).Overlaps(v.window) {
			return obj.Versions[i].Rec
		}
	}
	return nil
}
