package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/stats"
)

// Prepared is a statement ready to execute many times: its analysis,
// bound from the statement table's template of its shape (see
// DB.Prepare), and its fingerprint. A Prepared is immutable and safe for
// concurrent Exec calls: every execution builds its own governor and
// physical plans, so prepared statements can be shared across server
// request handlers and standing queries.
//
// A Prepared is bound to the DB (schema, views, backend) it was prepared
// on; executing it after the store's contents changed is fine — the
// anchor choice is re-costed per execution from live statistics.
type Prepared struct {
	db    *DB
	src   string // empty when bound from a handle
	a     *query.Analyzed
	shape *shape
	lits  []query.Literal
	// cached reports that Prepare found the shape compiled.
	cached bool
}

// Text returns the statement's original query text; it is empty for a
// statement bound from a handle.
func (p *Prepared) Text() string { return p.src }

// Cached reports whether the statement was bound to a template already
// in the statement table rather than compiled.
func (p *Prepared) Cached() bool { return p.cached }

// Digest returns the statement's literal-masked fingerprint — the key
// under which its executions aggregate in the statistics store.
func (p *Prepared) Digest() string { return p.shape.digest }

// NormalizedText returns the literal-masked statement the digest is
// computed from.
func (p *Prepared) NormalizedText() string { return p.shape.norm }

// Explain returns the statement's textual plan: per-variable anchors and
// operator DAGs (§5.1's Select/Extend/Union form), costed on the live
// statistics.
func (p *Prepared) Explain() string {
	var sb strings.Builder
	for _, rv := range p.a.Query.Vars {
		checked := p.a.Checked[rv.Name]
		fmt.Fprintf(&sb, "-- variable %s --\n", rv.Name)
		pl, err := plan.Build(checked, p.db.store.Stats())
		if err != nil {
			fmt.Fprintf(&sb, "anchor: imported from join (%v)\n", err)
			pl = plan.BuildSeeded(checked, plan.Forward)
		}
		sb.WriteString(pl.Explain())
	}
	return sb.String()
}

// Footprint returns the sorted set of class names whose mutations can
// change this statement's result: the union of every atom's subclass
// subtree across the query's pathway expressions, view constraints, and
// NOT EXISTS subqueries. The watch subsystem uses it to skip re-running
// standing queries for mutations that provably cannot affect them.
func (p *Prepared) Footprint() []string {
	var cs []*rpe.Checked
	var walk func(a *query.Analyzed)
	walk = func(a *query.Analyzed) {
		if a == nil {
			return
		}
		for _, c := range a.Checked {
			cs = append(cs, c)
		}
		for _, c := range a.ViewChecked {
			cs = append(cs, c)
		}
		for _, sub := range a.Subqueries {
			walk(sub)
		}
	}
	walk(p.a)
	return plan.ClassFootprint(cs...)
}

// Exec executes the prepared statement under ctx and the DB's installed
// limits, observing into the DB's registry and statistics like Query does.
func (p *Prepared) Exec(ctx context.Context) (*exec.Result, error) {
	return p.run(ctx, p.db.executor, exec.RunOptions{Limits: p.db.limits})
}

// ExecTraced is Exec under explicit per-call resource limits — the
// statement's compiled form is reused, only the governor differs per
// call — with optional operator-DAG tracing: a non-nil parent span
// receives the execution's "Query" span tree as a child (the server
// passes its request's Execute phase span here, stitching engine
// operators into the end-to-end trace). A nil parent runs untraced — the
// counters-only fast path.
func (p *Prepared) ExecTraced(ctx context.Context, lim exec.Limits, parent *obs.Span) (*exec.Result, error) {
	return p.run(ctx, p.db.executor, exec.RunOptions{Limits: lim, Parent: parent})
}

// ExplainAnalyze executes the statement under ctx and lim with
// operator-DAG tracing and renders each variable's plan annotated with
// the measured per-operator statistics — wall time, rows in/out, backend
// probes, EdgesScanned — in the style of EXPLAIN ANALYZE. The traced
// result is returned alongside the rendering for programmatic use.
func (p *Prepared) ExplainAnalyze(ctx context.Context, lim exec.Limits) (string, *exec.Result, error) {
	res, err := p.run(ctx, p.db.executor, exec.RunOptions{Limits: lim, Traced: true})
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	for _, rv := range p.a.Query.Vars {
		pl := res.Plans[rv.Name]
		if pl == nil {
			continue
		}
		fmt.Fprintf(&sb, "-- variable %s [%s] --\n", rv.Name, p.db.backend)
		sb.WriteString(pl.ExplainAnalyze(varSpan(res.Trace, rv.Name)))
	}
	fmt.Fprintf(&sb, "Query: time=%s rows=%d %s\n",
		obs.FormatDuration(res.Trace.Duration()), len(res.Rows), res.Metrics)
	return sb.String(), res, nil
}

// run is the one body every query entry point executes: run the prepared
// statement on x under o, then record the finished query into the
// registry's db.* metrics and the per-statement statistics store.
// Aborted queries (err != nil) count into db.queries_aborted and under
// their outcome in the statistics. The digest computed at Prepare lands
// on the result and the stats store.
func (p *Prepared) run(ctx context.Context, x *exec.Executor, o exec.RunOptions) (*exec.Result, error) {
	db := p.db
	start := time.Now()
	res, err := x.Run(ctx, p.a, o)
	dur := time.Since(start)
	if res != nil {
		res.Digest = p.shape.digest
	}
	db.o.queries.Add(1)
	if err != nil {
		db.o.aborted.Add(1)
	}
	db.o.latency.Observe(float64(dur) / 1e6)
	if res != nil {
		db.o.edgesScanned.Observe(float64(res.Metrics.EdgesScanned))
	}
	if db.stmtStats != nil {
		ob := stats.Observation{Duration: dur, Outcome: exec.Outcome(err)}
		if res != nil {
			ob.Edges = int64(res.Metrics.EdgesScanned)
			ob.Rows = int64(len(res.Rows))
		}
		db.stmtStats.Observe(p.shape.digest, p.shape.norm, ob)
	}
	return res, err
}
