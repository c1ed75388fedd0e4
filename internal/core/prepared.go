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
	"repro/internal/schema"
	"repro/internal/stats"
)

// Prepared is a query parsed and semantically analyzed once, ready to
// execute many times — the parse/compile-once half of a prepared
// statement. A Prepared is immutable after Prepare returns and safe for
// concurrent Exec calls: every execution builds its own governor and
// physical plans, so prepared statements can be shared across server
// request handlers (internal/server keeps them in its plan cache).
//
// A Prepared is bound to the DB (schema, views, backend) it was prepared
// on; executing it after the schema's store contents changed is fine —
// the anchor choice is re-costed per execution from live statistics.
type Prepared struct {
	db  *DB
	src string
	a   *query.Analyzed
	// digest/norm are the statement's literal-masked fingerprint and
	// normalized text, computed once here so executions never re-lex.
	digest string
	norm   string
}

// Prepare parses and analyzes src against the database's schema and
// views, returning a reusable statement. Parse or analysis errors are
// returned exactly as Query would return them.
func (db *DB) Prepare(src string) (*Prepared, error) {
	a, err := db.analyze(src)
	if err != nil {
		return nil, err
	}
	digest, norm := stats.Fingerprint(src)
	return &Prepared{db: db, src: src, a: a, digest: digest, norm: norm}, nil
}

// Text returns the statement's original query text.
func (p *Prepared) Text() string { return p.src }

// Digest returns the statement's literal-masked fingerprint — the key
// under which its executions aggregate in the statistics store.
func (p *Prepared) Digest() string { return p.digest }

// NormalizedText returns the literal-masked statement the digest is
// computed from.
func (p *Prepared) NormalizedText() string { return p.norm }

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
// limits, observing into the DB's registry and slow log like Query does.
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

// run is the one body every query entry point executes: run the prepared
// statement on x under o, then record the finished query into the
// registry, the per-statement statistics store, and the slow log.
// Aborted queries (err != nil) count into db.queries_aborted and are
// always logged — regardless of duration — with their termination
// outcome, since a query that died 1ms into its deadline is exactly the
// one an operator wants to see. The context supplies the trace ID that
// links slow-log entries to their end-to-end request trace; the digest
// computed at Prepare lands on the result, the slow-log entry, and the
// stats store.
func (p *Prepared) run(ctx context.Context, x *exec.Executor, o exec.RunOptions) (*exec.Result, error) {
	db := p.db
	start := time.Now()
	res, err := x.Run(ctx, p.a, o)
	dur := time.Since(start)
	if res != nil {
		res.Digest = p.digest
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
		db.stmtStats.Observe(p.digest, p.norm, ob)
	}
	if db.slowLog != nil && (err != nil || dur >= db.slowLog.Threshold()) {
		entry := obs.SlowLogEntry{
			When:     time.Now(),
			Query:    p.src,
			Duration: dur,
			Outcome:  exec.Outcome(err),
			TraceID:  obs.TraceIDFrom(ctx),
			Digest:   p.digest,
		}
		if res != nil {
			var planText strings.Builder
			for _, name := range schema.SortedNames(planKeys(res.Plans)) {
				fmt.Fprintf(&planText, "-- variable %s --\n%s", name, res.Plans[name].Explain())
			}
			entry.Plan = planText.String()
			entry.Metrics = res.Metrics.String()
			entry.Trace = res.Trace
		}
		db.slowLog.Observe(entry)
	}
	return res, err
}

func planKeys(m map[string]*plan.Plan) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
