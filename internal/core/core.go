// Package core is Nepal's public API: a model-driven, temporal,
// path-first graph database layer for network inventory and topology.
//
// A DB combines a strongly-typed temporal graph store with one of the two
// query backends (the Gremlin-style property-graph engine or the
// relational engine) and the Nepal query language executor. Open it over
// a schema, load inventory (directly or via update-by-snapshot), and run
// Nepal queries:
//
//	db, _ := core.Open(netmodel.MustSchema())
//	res, _ := db.Query(`
//	    AT '2017-02-15 10:00:00'
//	    Select source(P).name From PATHS P
//	    Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=23245)`)
//
// Several DBs over different backends can be joined in one query through
// QueryRouted — Nepal's data-integration mode (§3.1).
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Backend names accepted by WithBackend.
const (
	BackendGremlin    = "gremlin"
	BackendRelational = "relational"
)

type config struct {
	backend string
	clock   *temporal.Clock
	wrap    func(plan.Accessor) plan.Accessor
	walDir  string
	walOpts wal.Options
	limits  exec.Limits
	slowLog *obs.SlowLog
}

// Option configures Open.
type Option func(*config)

// WithBackend selects the query backend: BackendGremlin (default) or
// BackendRelational.
func WithBackend(name string) Option {
	return func(c *config) { c.backend = name }
}

// WithClock installs a transaction clock; tests and deterministic loads
// pass a temporal.NewManualClock.
func WithClock(clock *temporal.Clock) Option {
	return func(c *config) { c.clock = clock }
}

// WithWAL makes the database durable: every mutation is appended (and
// fsynced) to a write-ahead log in dir before it is applied, and Open
// recovers the database from the directory's checkpoint and log — so a
// crashed process restarts with exactly the acknowledged writes, full
// temporal history included. Use DB.Checkpoint to contract the log and
// DB.Close to release it. See internal/wal for the on-disk contract.
func WithWAL(dir string) Option {
	return func(c *config) { c.walDir = dir }
}

// WithWALOptions is WithWAL with explicit log options (e.g. NoSync for
// workloads that accept page-cache durability in exchange for append
// throughput).
func WithWALOptions(dir string, opts wal.Options) Option {
	return func(c *config) { c.walDir, c.walOpts = dir, opts }
}

// WithAccessorWrapper interposes on the backend's physical access layer:
// the wrapper receives the backend accessor and returns the accessor the
// engine drives. Fault-injection tests pass internal/chaos.Wrap here; a
// nil wrapper is ignored.
func WithAccessorWrapper(w func(plan.Accessor) plan.Accessor) Option {
	return func(c *config) { c.wrap = w }
}

// WithLimits installs per-query resource guardrails: every query on the
// DB that does not bring its own (Prepared.ExecTraced does) runs under
// them and aborts with exec.ErrLimitExceeded (or ErrDeadlineExceeded for
// MaxDuration) when a bound is crossed. The zero Limits, the default, sets
// no guardrail.
func WithLimits(lim exec.Limits) Option {
	return func(c *config) { c.limits = lim }
}

// WithSlowLog installs a slow-query log: every query whose total time
// reaches the log's threshold is captured with its text, plan, metrics,
// and trace (when traced), and every aborted query regardless of time.
func WithSlowLog(l *obs.SlowLog) Option {
	return func(c *config) { c.slowLog = l }
}

// DB is an open Nepal database.
type DB struct {
	store     *graph.Store
	engine    *plan.Engine
	executor  *exec.Executor
	limits    exec.Limits
	backend   string
	views     query.Views
	o         dbObs
	slowLog   *obs.SlowLog
	stmtStats *stats.Store
	wal       *wal.Manager
	recovery  wal.RecoveryStats
	closed    atomic.Bool
}

// dbObs holds the per-query metrics every query entry point records.
type dbObs struct {
	queries      *obs.Counter
	aborted      *obs.Counter
	latency      *obs.Histogram
	edgesScanned *obs.Histogram
}

// Open creates an empty database over the finalized schema. The database
// owns one metrics registry (see Registry): the store, the backend, the
// engine, and the write-ahead log resolve their metrics on it as they are
// built, and every query records into it.
func Open(sch *schema.Schema, opts ...Option) (*DB, error) {
	cfg := config{backend: BackendGremlin}
	for _, o := range opts {
		o(&cfg)
	}
	reg := obs.NewRegistry()
	store := graph.NewStore(sch, cfg.clock, reg)
	var mgr *wal.Manager
	var recovery wal.RecoveryStats
	if cfg.walDir != "" {
		var err error
		mgr, recovery, err = wal.Open(cfg.walDir, store, cfg.walOpts)
		if err != nil {
			return nil, fmt.Errorf("core: recovering write-ahead log: %w", err)
		}
		store.SetMutationHook(mgr.Append)
	}
	var acc plan.Accessor
	switch cfg.backend {
	case BackendGremlin:
		acc = gremlin.New(store)
	case BackendRelational:
		acc = relational.New(store)
	default:
		return nil, fmt.Errorf("core: unknown backend %q (use %q or %q)",
			cfg.backend, BackendGremlin, BackendRelational)
	}
	if cfg.wrap != nil {
		acc = cfg.wrap(acc)
	}
	engine := plan.NewEngine(acc)
	return &DB{store: store, engine: engine, executor: exec.New(engine),
		limits: cfg.limits, backend: cfg.backend, views: query.Views{},
		slowLog: cfg.slowLog, wal: mgr, recovery: recovery,
		o: dbObs{
			queries:      reg.Counter("db.queries"),
			aborted:      reg.Counter("db.queries_aborted"),
			latency:      reg.Histogram("db.query_latency_ms"),
			edgesScanned: reg.HistogramBuckets("db.query_edges_scanned", obs.DefaultSizeBuckets),
		}}, nil
}

// Checkpoint snapshots the database's full temporal history and contracts
// the write-ahead log; it requires WithWAL. Mutations continue during the
// snapshot — the log rotates first, and replay idempotence covers the
// overlap.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("core: no write-ahead log configured (use WithWAL)")
	}
	return db.wal.Checkpoint(db.store)
}

// Close releases the write-ahead log, syncing the active segment. It is
// a no-op for databases opened without WithWAL, idempotent (every call
// after the first returns nil), and safe for concurrent use — server
// shutdown paths race a signal-handler Close against a deferred one, and
// exactly one of them closes the WAL.
func (db *DB) Close() error {
	if db.wal == nil || !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	return db.wal.Close()
}

// RecoveryStats reports what Open restored from the write-ahead log
// directory; the zero value means the database is not WAL-backed or the
// directory was empty.
func (db *DB) RecoveryStats() wal.RecoveryStats { return db.recovery }

// WAL exposes the write-ahead log manager (nil without WithWAL).
func (db *DB) WAL() *wal.Manager { return db.wal }

// DefineView registers a named pathway view: a reusable RPE that supplies
// the implicit MATCHES predicate for variables ranging over it (§3.4's
// "additional views can be defined" — PATHS is the built-in view of all
// pathways). Example:
//
//	db.DefineView("Placements", "VM()->OnServer()->Host()")
//	db.Query("Select source(P).name From Placements P")
//
// A variable may combine a view with its own MATCHES predicate; the
// pathway must then satisfy both, with validity-intersection semantics.
func (db *DB) DefineView(name, rpeSrc string) error {
	if name == query.BaseView || name == "" {
		return fmt.Errorf("core: %q cannot name a view", name)
	}
	expr, err := rpe.Parse(rpeSrc)
	if err != nil {
		return err
	}
	if _, err := rpe.Check(expr, db.Schema()); err != nil {
		return err
	}
	db.views[name] = expr
	return nil
}

// Store exposes the underlying temporal graph store.
func (db *DB) Store() *graph.Store { return db.store }

// Schema returns the database schema.
func (db *DB) Schema() *schema.Schema { return db.store.Schema() }

// Backend reports the configured backend name.
func (db *DB) Backend() string { return db.backend }

// Engine exposes the backend engine (for benchmark harnesses).
func (db *DB) Engine() *plan.Engine { return db.engine }

// InsertNode validates and inserts a node, returning its UID. This and
// the three writes below are shorthands for Store().Mutate without a
// caller context; a write that must reach a request's trace calls Mutate.
func (db *DB) InsertNode(class string, fields graph.Fields) (graph.UID, error) {
	return db.store.InsertNode(class, fields)
}

// InsertEdge validates and inserts an edge between two nodes.
func (db *DB) InsertEdge(class string, src, dst graph.UID, fields graph.Fields) (graph.UID, error) {
	return db.store.InsertEdge(class, src, dst, fields)
}

// Update replaces an object's fields, versioning the previous state.
func (db *DB) Update(uid graph.UID, fields graph.Fields) error {
	return db.store.Update(uid, fields)
}

// Delete closes an object's current version (cascading to incident edges
// for nodes); its history remains queryable.
func (db *DB) Delete(uid graph.UID) error { return db.store.Delete(uid) }

// ApplySnapshot reconciles the database with a full source snapshot — the
// update-by-snapshot service for sources that publish periodic dumps.
func (db *DB) ApplySnapshot(snap *graph.Snapshot) (graph.DiffStats, error) {
	return db.store.ApplySnapshot(snap)
}

// Registry returns the database's metrics registry: engine, store,
// backend, WAL, and per-query ("db.*") metrics.
func (db *DB) Registry() *obs.Registry { return db.store.Registry() }

// Instrument publishes the database's metrics into reg as well (see
// obs.Registry.Include), so one dump — a server's /metrics — shows them
// beside reg's own. Nothing is re-pointed: the database keeps recording
// into its own registry, whose metric objects reg then shares.
func (db *DB) Instrument(reg *obs.Registry) { reg.Include(db.Registry()) }

// SetStatementStats installs a per-statement statistics store: every
// query records its digest, outcome, latency, scan volume, and row
// count into the store's bounded top-K aggregates. A nil store disables
// collection.
func (db *DB) SetStatementStats(s *stats.Store) { db.stmtStats = s }

// Limits returns the installed per-query guardrails.
func (db *DB) Limits() exec.Limits { return db.limits }

// Query parses, analyzes, and executes a Nepal query. The result carries
// the evaluation's operator-pipeline metrics; tracing stays off on this
// path, keeping its overhead to counter increments.
func (db *DB) Query(src string) (*exec.Result, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context: the query aborts cooperatively
// with exec.ErrCanceled/exec.ErrDeadlineExceeded when ctx is canceled or
// its deadline (or the DB's Limits.MaxDuration, whichever is earlier)
// passes. Aborts are recorded in the db.queries_aborted counter and, as
// entries with a non-"ok" Outcome, in the slow-query log.
func (db *DB) QueryContext(ctx context.Context, src string) (*exec.Result, error) {
	p, err := db.Prepare(src)
	if err != nil {
		return nil, err
	}
	return p.Exec(ctx)
}

// QueryRouted executes a query whose range variables may be routed to
// other databases: routes maps a variable name to the DB serving it.
// Pathways from the routed stores are joined in the executor, with node
// identity crossing store boundaries via the schema-unique id field. It
// runs under this DB's limits and observes into its registry, statistics
// and slow log like a local query; a routed engine's error fails the
// query with that error.
func (db *DB) QueryRouted(src string, routes map[string]*DB) (*exec.Result, error) {
	p, err := db.Prepare(src)
	if err != nil {
		return nil, err
	}
	x := exec.New(db.engine)
	for name, other := range routes {
		x.Route(name, other.engine)
	}
	return p.run(context.Background(), x, exec.RunOptions{Limits: db.limits})
}

func (db *DB) analyze(src string) (*query.Analyzed, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return query.AnalyzeWithViews(q, db.Schema(), db.views)
}

// MatchPaths evaluates a bare RPE against the current snapshot and
// returns the matching pathways — the programmatic fast path equivalent
// to "Retrieve P From PATHS P Where P MATCHES <rpe>".
func (db *DB) MatchPaths(rpeSrc string) ([]plan.Pathway, error) {
	return db.MatchPathsAt(rpeSrc, time.Time{})
}

// MatchPathsAt is MatchPaths against the snapshot at time at (the zero
// time means the current snapshot).
func (db *DB) MatchPathsAt(rpeSrc string, at time.Time) ([]plan.Pathway, error) {
	c, err := rpe.CheckString(rpeSrc, db.Schema())
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(c, db.store.Stats())
	if err != nil {
		return nil, err
	}
	view := graph.CurrentView(db.store)
	if !at.IsZero() {
		view = graph.PointView(db.store, at)
	}
	set, _, err := db.engine.EvalMetered(view, p)
	if err != nil {
		return nil, err
	}
	return set.Paths(), nil
}

// Explain returns the query's textual plan: per-variable anchors and
// operator DAGs (§5.1's Select/Extend/Union form).
func (db *DB) Explain(src string) (string, error) {
	a, err := db.analyze(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, rv := range a.Query.Vars {
		checked := a.Checked[rv.Name]
		fmt.Fprintf(&sb, "-- variable %s --\n", rv.Name)
		p, err := plan.Build(checked, db.store.Stats())
		if err != nil {
			fmt.Fprintf(&sb, "anchor: imported from join (%v)\n", err)
			p = plan.BuildSeeded(checked, plan.Forward)
		}
		sb.WriteString(p.Explain())
	}
	return sb.String(), nil
}

// ExplainAnalyze executes the query with operator-DAG tracing and renders
// each variable's plan annotated with the measured per-operator
// statistics — wall time, rows in/out, backend probes, EdgesScanned — in
// the style of EXPLAIN ANALYZE. The traced result is returned alongside
// the rendering for programmatic use.
func (db *DB) ExplainAnalyze(src string) (string, *exec.Result, error) {
	stmt, err := db.Prepare(src)
	if err != nil {
		return "", nil, err
	}
	res, err := stmt.run(context.Background(), db.executor, exec.RunOptions{Limits: db.limits, Traced: true})
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	for _, rv := range stmt.a.Query.Vars {
		p := res.Plans[rv.Name]
		if p == nil {
			continue
		}
		fmt.Fprintf(&sb, "-- variable %s [%s] --\n", rv.Name, db.backend)
		sb.WriteString(p.ExplainAnalyze(varSpan(res.Trace, rv.Name)))
	}
	fmt.Fprintf(&sb, "Query: time=%s rows=%d %s\n",
		obs.FormatDuration(res.Trace.Duration()), len(res.Rows), res.Metrics)
	return sb.String(), res, nil
}

// varSpan finds the per-variable group span inside a query trace; when
// absent (e.g. the variable never evaluated) the whole trace is used, so
// stats degrade to query-wide aggregates instead of vanishing.
func varSpan(trace *obs.Span, name string) *obs.Span {
	if trace == nil {
		return nil
	}
	for _, child := range trace.Children() {
		if child.Name() == "Var" && child.Detail() == name {
			return child
		}
	}
	return trace
}

// RenderPath formats a pathway against this database's store.
func (db *DB) RenderPath(p plan.Pathway) string { return p.Render(db.store) }

// EvolutionStep is one constant-state slice of a pathway's history: the
// element field values that held during Period, and whether the pathway
// satisfied the RPE then.
type EvolutionStep struct {
	Period    temporal.Interval
	Fields    []graph.Fields
	Satisfies bool
	Exists    bool
}

// PathEvolution answers the §4 path evolution query: for a specific
// pathway (fixed node and edge UIDs), it returns the timeline of field
// values across every version boundary of its elements, with the periods
// during which the pathway satisfied the given RPE. Visualization
// applications drill into a returned pathway with it.
func (db *DB) PathEvolution(p plan.Pathway, rpeSrc string) ([]EvolutionStep, error) {
	c, err := rpe.CheckString(rpeSrc, db.Schema())
	if err != nil {
		return nil, err
	}
	objs := make([]*graph.Object, len(p.Elems))
	boundaries := map[int64]time.Time{}
	for i, uid := range p.Elems {
		obj := db.store.Object(uid)
		if obj == nil {
			return nil, fmt.Errorf("core: pathway element %d not found", uid)
		}
		objs[i] = obj
		for _, v := range obj.Versions {
			boundaries[v.Period.Start.UnixNano()] = v.Period.Start
			if !v.Period.IsCurrent() {
				boundaries[v.Period.End.UnixNano()] = v.Period.End
			}
		}
	}
	times := make([]time.Time, 0, len(boundaries))
	for _, t := range boundaries {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })

	var steps []EvolutionStep
	for i, start := range times {
		var period temporal.Interval
		if i+1 < len(times) {
			period = temporal.Between(start, times[i+1])
		} else {
			period = temporal.Current(start)
		}
		step := EvolutionStep{Period: period, Exists: true}
		elements := make([]rpe.Element, len(objs))
		for j, obj := range objs {
			ver := obj.VersionAt(start)
			if ver == nil {
				step.Exists = false
				break
			}
			step.Fields = append(step.Fields, ver.Fields)
			elements[j] = rpe.Element{Class: obj.Class, Fields: ver.Fields}
		}
		if step.Exists {
			step.Satisfies = c.MatchesPathway(elements)
		}
		steps = append(steps, step)
	}
	return steps, nil
}
