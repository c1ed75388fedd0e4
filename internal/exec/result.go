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

// Row is one result tuple: the pathway bound to each range variable plus
// its temporal annotation.
type Row struct {
	// Values holds the projected values in projection order: for
	// Retrieve a *plan.Pathway pointing at the row's binding, scalars for
	// Select terms. All rows of a result share one backing array.
	Values []any
	// Coexist is the maximal range during which all bound pathways
	// coexisted; populated for query-level time semantics.
	Coexist temporal.Set
	// bind holds the pathway of each range variable by slot: a window of
	// the evaluation's pathway set when the query binds one variable, of
	// its last join step's slab otherwise; slots names them.
	bind  []plan.Pathway
	slots *slots
}

// Binding returns the pathway bound to a range variable; ok is false for
// a name the query does not declare (and on a count(...) row).
func (r Row) Binding(name string) (plan.Pathway, bool) {
	return r.slots.lookup(name, r.bind) // a nil slots binds nothing
}

// VarTime returns a variable's own maximal validity ranges when the
// variables carry their own time bindings, and nil under query-level
// time (where Coexist holds the row's ranges).
func (r Row) VarTime(name string) temporal.Set {
	p, ok := r.Binding(name)
	if !ok || !r.slots.perVar {
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
		parts := make([]string, len(row.Values))
		for i, v := range row.Values {
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
		if row.Coexist != nil {
			sb.WriteString("  times: " + row.Coexist.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
