// Package exec executes analyzed Nepal queries: it evaluates each pathway
// range variable through a backend engine (seeding imported anchors from
// joins when a variable has none of its own), joins the per-variable
// pathway sets on source()/target() equality, applies NOT EXISTS
// subqueries, enforces the §4 temporal semantics (coexistence ranges for
// query-level AT, independent ranges for per-variable times), computes
// the First/Last/When-Exists aggregates, and performs Select-clause post
// processing.
//
// The executor can route different range variables to different engines —
// Nepal's data-integration mode, where paths from different inventories
// with different underlying databases are joined in the shim layer.
// Cross-store joins therefore compare the schema-unique id field of the
// endpoint nodes rather than store-local UIDs.
package exec

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/temporal"
)

// Row is one result tuple: an index into its result's row table.
type Row struct {
	t *table
	i int
}

// table holds the rows of a result: the pathway bound to each
// range variable, row-major, width slots a row, with the slots naming
// them; each row's coexistence where it needs a column of its own; and
// the projected values, ncols a row. A one-variable query's bindings are
// its evaluation's own sealed pathway array, filtered in place.
type table struct {
	slots *slots
	width int
	bind  []plan.Pathway
	// co holds each row's coexistence when the query binds more than one
	// variable under query-level time. With one variable the row's range
	// is its pathway's own validity, and per-variable time has none.
	co    []temporal.Set
	vals  []any
	ncols int
}

// len returns the number of rows the table binds.
func (t *table) len() int { return len(t.bind) / t.width }

// row returns row i's bindings by slot.
func (t *table) row(i int) []plan.Pathway {
	w := t.width
	return t.bind[i*w : (i+1)*w : (i+1)*w]
}

// coexist returns row i's coexistence ranges: nil under per-variable
// time and on a count(...) row.
func (t *table) coexist(i int) temporal.Set {
	switch {
	case t.co != nil:
		return t.co[i]
	case t.slots == nil || t.slots.perVar:
		return nil
	default:
		return t.bind[i].Validity
	}
}

// Values returns the projected values in projection order: for Retrieve
// a *plan.Pathway pointing at the row's binding, scalars for Select
// terms. All rows of a result share one backing array.
func (r Row) Values() []any {
	n := r.t.ncols
	return r.t.vals[r.i*n : (r.i+1)*n : (r.i+1)*n]
}

// Coexist returns the maximal ranges during which all the row's bound
// pathways coexisted under query-level time, and nil under per-variable
// time (see VarTime).
func (r Row) Coexist() temporal.Set { return r.t.coexist(r.i) }

// Binding returns the pathway bound to a range variable; ok is false for
// a name the query does not declare (and on a count(...) row).
func (r Row) Binding(name string) (plan.Pathway, bool) {
	if r.t.slots == nil {
		return plan.Pathway{}, false
	}
	return r.t.slots.lookup(name, r.t.row(r.i))
}

// VarTime returns a variable's own maximal validity ranges when the
// variables carry their own time bindings, and nil under query-level
// time (where Coexist holds the row's ranges).
func (r Row) VarTime(name string) temporal.Set {
	p, ok := r.Binding(name)
	if !ok || !r.t.slots.perVar {
		return nil
	}
	return p.Validity
}

// Result is a query's full answer.
type Result struct {
	Columns []string
	Rows    []Row
	// Digest is the statement's literal-masked fingerprint (16 hex
	// chars), the key into the per-statement statistics surfaces. Filled
	// by core after execution; empty for results produced below it.
	Digest string
	// Agg carries the answer of a temporal aggregate query; nil otherwise.
	Agg *AggValue
	// Metrics totals the operator-pipeline counters across every variable
	// evaluation of the query, subqueries included. It is a value copy:
	// safe to read concurrently with further queries on the same executor.
	Metrics plan.Metrics
	// Plans records the executed plan of each range variable by name.
	Plans map[string]*plan.Plan
	// Trace is the query's operator-DAG span tree; nil unless the query
	// ran with a RunOptions.Parent span.
	Trace *obs.Span
}

// AggValue is the answer to First/Last/When-Exists.
type AggValue struct {
	// Time is set for First/Last Time When Exists.
	Time time.Time
	// Current is true when a Last-Time aggregate is still open (the
	// pathway still exists).
	Current bool
	// Set is the full interval set for When Exists.
	Set temporal.Set
	// Exists reports whether any satisfying pathway was found at all.
	Exists bool
	// at is the AT range the answer was clipped to; nil without one.
	at *query.TimeSpec
}

// Bound renders ns, a bound of Set or of the First/Last reading, as a
// time. A bound at an edge of the query's AT range is that literal as
// written: the engine clips with the range in int64 nanoseconds, which
// saturates a literal outside 1678–2262 (temporal.Nanos).
func (a *AggValue) Bound(ns int64) time.Time {
	if ts := a.at; ts != nil {
		switch ns {
		case ts.Window.Start:
			return ts.Start
		case ts.Window.End:
			return ts.End
		}
	}
	return temporal.Time(ns)
}

// Format renders the result as an aligned text table for CLI output.
func (r *Result) Format(render func(plan.Pathway) string) string {
	var sb strings.Builder
	if r.Agg != nil {
		switch {
		case !r.Agg.Exists:
			sb.WriteString("no satisfying pathway\n")
		case r.Agg.Set != nil:
			fmt.Fprintf(&sb, "when exists: %s\n", r.Agg.Set.Format(r.Agg.Bound))
		case r.Agg.Current:
			sb.WriteString("still exists (no last time)\n")
		default:
			fmt.Fprintf(&sb, "%s\n", r.Agg.Time.UTC().Format(temporal.Layout))
		}
		return sb.String()
	}
	sb.WriteString(strings.Join(r.Columns, " | "))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		vals := row.Values()
		parts := make([]string, len(vals))
		for i, v := range vals {
			if p, ok := v.(*plan.Pathway); ok {
				parts[i] = render(*p)
				if len(p.Validity) > 0 {
					parts[i] += " " + p.Validity.String()
				}
			} else {
				parts[i] = fmt.Sprintf("%v", v)
			}
		}
		sb.WriteString(strings.Join(parts, " | "))
		if co := row.Coexist(); co != nil {
			sb.WriteString("  times: " + co.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
