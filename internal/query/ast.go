// Package query implements the Nepal query language front end (§3.4, §4):
// the SQL-like surface with Retrieve/Select verbs, pathway range variables
// over the PATHS view, MATCHES predicates holding regular pathway
// expressions, source()/target() joins, NOT EXISTS subqueries, and the
// temporal forms — query-level AT timeslices and ranges, per-variable
// @time bindings, and the First/Last/When-Exists aggregates.
package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rpe"
	"repro/internal/temporal"
)

// Verb distinguishes Retrieve (pathways out) from Select (post-processed
// projections out).
type Verb int

const (
	Retrieve Verb = iota
	Select
)

func (v Verb) String() string {
	if v == Select {
		return "Select"
	}
	return "Retrieve"
}

// AggKind marks the temporal aggregation form wrapping the query.
type AggKind int

const (
	AggNone       AggKind = iota
	AggFirstTime          // FIRST TIME WHEN EXISTS q
	AggLastTime           // LAST TIME WHEN EXISTS q
	AggWhenExists         // WHEN EXISTS q
)

func (a AggKind) String() string {
	switch a {
	case AggFirstTime:
		return "First Time When Exists"
	case AggLastTime:
		return "Last Time When Exists"
	case AggWhenExists:
		return "When Exists"
	}
	return ""
}

// TimeSpec is an AT clause: a point (AT t) or a range (AT t1 : t2).
// Start and End are the literals as written, which the clause renders;
// Window is what the engine selects with, converted once when the clause
// is parsed.
type TimeSpec struct {
	Start   time.Time
	End     time.Time
	IsRange bool
	// Window is the clause in Unix nanoseconds: [Start, End) for a range,
	// the nanosecond at Start for a point. Literals outside the int64
	// range saturate (temporal.Nanos); a range whose End is after its
	// Start keeps a non-empty window when both saturate to one value.
	Window temporal.Interval
}

// newTimeSpec returns the clause AT start, or AT start : end when end is
// non-nil, with its window.
func newTimeSpec(start time.Time, end *time.Time) *TimeSpec {
	s := temporal.Nanos(start)
	if end == nil {
		return &TimeSpec{Start: start, Window: temporal.Between(s, temporal.Add(s, time.Nanosecond))}
	}
	e := temporal.Nanos(*end)
	if end.After(start) {
		e = max(e, temporal.Add(s, time.Nanosecond))
	}
	return &TimeSpec{Start: start, End: *end, IsRange: true, Window: temporal.Between(s, e)}
}

func (ts *TimeSpec) String() string {
	if ts.IsRange {
		return fmt.Sprintf("AT '%s' : '%s'", ts.Start.Format(temporal.Layout), ts.End.Format(temporal.Layout))
	}
	return fmt.Sprintf("AT '%s'", ts.Start.Format(temporal.Layout))
}

// PathFn is a pathway function usable in projections and join terms.
type PathFn int

const (
	FnNone   PathFn = iota // bare variable (pathway projection)
	FnSource               // source(P): first node
	FnTarget               // target(P): last node
	FnLen                  // len(P): number of edges
	FnCount                // count(P): pathway-set aggregation (Select only)
)

func (f PathFn) String() string {
	switch f {
	case FnSource:
		return "source"
	case FnTarget:
		return "target"
	case FnLen:
		return "len"
	case FnCount:
		return "count"
	}
	return ""
}

// Term is a variable reference, optionally through a pathway function and
// a field access: P, source(P), source(P).name.
type Term struct {
	Var   string
	Fn    PathFn
	Field string // non-empty only with FnSource/FnTarget
}

func (t Term) String() string {
	s := t.Var
	if t.Fn != FnNone {
		s = fmt.Sprintf("%s(%s)", t.Fn, t.Var)
	}
	if t.Field != "" {
		s += "." + t.Field
	}
	return s
}

// RangeVar declares one pathway variable in the From clause, optionally
// bound to its own time point or range (P(@'2017-02-15 10:00')).
//
// Source names the pathway view the variable ranges over. "PATHS" — the
// set of all pathways — is the base view; additional named views
// (defined with an RPE) supply an implicit MATCHES predicate, per §3.4:
// "each pathway variable must have a MATCHES predicate (unless one is
// implicit in the pathway view source)".
type RangeVar struct {
	Source string
	Name   string
	At     *TimeSpec
	// Match is the variable's MATCHES expression, attached during analysis
	// (the predicate also remains in Preds for faithful printing).
	Match rpe.Expr
	// ViewMatch is the implicit expression contributed by a named view.
	ViewMatch rpe.Expr
}

// BaseView is the name of the built-in view of all pathways.
const BaseView = "PATHS"

func (rv RangeVar) String() string {
	src := rv.Source
	if src == "" {
		src = BaseView
	}
	if rv.At == nil {
		return src + " " + rv.Name
	}
	if rv.At.IsRange {
		return fmt.Sprintf("%s %s(@'%s' : '%s')", src, rv.Name,
			rv.At.Start.Format(temporal.Layout), rv.At.End.Format(temporal.Layout))
	}
	return fmt.Sprintf("%s %s(@'%s')", src, rv.Name, rv.At.Start.Format(temporal.Layout))
}

// Pred is one conjunct of the Where clause.
type Pred interface{ fmt.Stringer }

// MatchPred is "P MATCHES <rpe>".
type MatchPred struct {
	Var  string
	Expr rpe.Expr
}

func (m *MatchPred) String() string { return fmt.Sprintf("%s MATCHES %s", m.Var, m.Expr) }

// JoinPred is "term = term" or "term != term" over source/target/len terms.
type JoinPred struct {
	Left, Right Term
	Negated     bool
}

func (j *JoinPred) String() string {
	op := "="
	if j.Negated {
		op = "!="
	}
	return fmt.Sprintf("%s %s %s", j.Left, op, j.Right)
}

// NotExistsPred is "NOT EXISTS ( <query> )"; the subquery may reference
// outer variables in its join predicates (correlation).
type NotExistsPred struct {
	Sub *Query
}

func (n *NotExistsPred) String() string { return "NOT EXISTS (" + n.Sub.String() + ")" }

// Query is a parsed Nepal query.
type Query struct {
	Agg   AggKind
	At    *TimeSpec
	Verb  Verb
	Projs []Term
	Vars  []RangeVar
	Preds []Pred
}

// Var returns the declared range variable by name.
func (q *Query) Var(name string) (*RangeVar, bool) {
	for i := range q.Vars {
		if q.Vars[i].Name == name {
			return &q.Vars[i], true
		}
	}
	return nil, false
}

// String renders the query in canonical Nepal syntax.
func (q *Query) String() string {
	var sb strings.Builder
	if q.Agg != AggNone {
		sb.WriteString(q.Agg.String())
		sb.WriteByte(' ')
	}
	if q.At != nil {
		sb.WriteString(q.At.String())
		sb.WriteByte(' ')
	}
	sb.WriteString(q.Verb.String())
	sb.WriteByte(' ')
	for i, p := range q.Projs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	sb.WriteString(" From ")
	for i, v := range q.Vars {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	if len(q.Preds) > 0 {
		sb.WriteString(" Where ")
		for i, p := range q.Preds {
			if i > 0 {
				sb.WriteString(" And ")
			}
			sb.WriteString(p.String())
		}
	}
	return sb.String()
}
