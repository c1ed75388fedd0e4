// Command nepal is the interactive face of the Nepal graph database: it
// loads a schema and inventory data, executes Nepal queries (including
// time-travel forms), and can print query plans, EXPLAIN ANALYZE traces,
// engine metrics, and the generated Gremlin/SQL for the retargetable
// backends.
//
// Usage examples:
//
//	# run a query against the built-in demo topology
//	nepal -demo -q "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"
//
//	# load a snapshot produced by nepalgen and query at a point in time
//	nepal -model netmodel -data inventory.json \
//	      -q "AT '2017-02-15 10:00:00' Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=5)"
//
//	# show the operator plan and the generated SQL for a query
//	nepal -demo -explain -codegen sql -q "..."
//
//	# execute with operator-DAG tracing and print the annotated plan
//	nepal -demo -explain-analyze -q "..."
//
//	# dump engine metrics after the queries, log queries slower than 50ms
//	nepal -demo -metrics -slow-query 50ms -q "..."
//
//	# expose net/http/pprof and /debug/vars while serving stdin queries
//	nepal -demo -pprof localhost:6060
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// options collects one invocation's configuration; tests construct it
// directly with a capture writer.
type options struct {
	model      string
	schemaPath string
	dataPath   string
	demo       bool
	backend    string
	q          string
	explain    bool
	// explainAnalyze executes the query with operator-DAG tracing and
	// prints the plan annotated with measured per-operator statistics.
	explainAnalyze bool
	gen            string
	// metrics prints the engine metrics registry, in Prometheus text
	// exposition format, after the queries run.
	metrics bool
	// slowQuery, when positive, logs queries at least this slow with
	// their plan and metrics.
	slowQuery time.Duration
	// timeout, maxPaths, and maxEdges are per-query guardrails: a query
	// that crosses one aborts with a one-line typed error instead of
	// hanging the process on a pathological expansion.
	timeout  time.Duration
	maxPaths int
	maxEdges int
	// pprofAddr, when set, serves net/http/pprof (and expvar under
	// /debug/vars) on the address for the life of the process.
	pprofAddr string
	// walDir makes the store durable: mutations append to a write-ahead
	// log in the directory, and startup recovers the store from its
	// checkpoint and log.
	walDir string
	// checkpoint snapshots the recovered store and contracts the log, then
	// exits (unless a query was also given). Requires walDir.
	checkpoint bool
	// fsck verifies the store's structural invariants after loading and
	// exits nonzero on violations; no queries run.
	fsck bool
	// serveAddr, when set, serves the loaded store over the HTTP/JSON
	// query API on the address until SIGINT/SIGTERM, instead of running
	// local queries.
	serveAddr string
	// maxInFlight, maxQueue, and planCache size the server's admission
	// control and compiled-plan cache (0 = server defaults).
	maxInFlight int
	maxQueue    int
	planCache   int
	// accessLog, when set, appends one structured JSON line per served
	// request (trace ID, status, outcome, latency) to this file; "-"
	// writes to stderr.
	accessLog string
	// connectURL, when set, turns nepal into a thin client of a running
	// server: no store is opened; queries go over the wire.
	connectURL string
	// followURL, with -serve and -wal-dir, makes this node a read
	// replica: it streams the primary's WAL from the URL into its own,
	// serves read-only queries with a staleness watermark, resumes where
	// its log ends after a restart, and can be promoted via POST
	// /v1/promote.
	followURL string
	// watch, with -connect, tails the server's change feed and prints one
	// JSON event per line until interrupted (or -timeout elapses).
	watch bool
	// watchFrom is the stream index -watch starts at. 0 replays from the
	// oldest retained position; a compacted prefix surfaces as a
	// watch_compacted control line carrying the fresh resume token.
	watchFrom uint64
	// top, with -connect, prints the server's per-statement statistics
	// table (GET /v1/stats/statements) and exits; topN bounds the rows and
	// topSort picks the order (total_time, calls, or mean_time).
	top     bool
	topN    int
	topSort string
	// peers, with -serve, is the comma-separated base-URL list of the
	// deployment's other nodes; GET /debug/cluster probes each one.
	peers string
	// statsSize, with -serve, bounds the per-statement statistics table
	// (0 = default 256 digests; negative disables collection).
	statsSize int
	// promote, with -connect, asks the remote replica to promote itself
	// to primary and exits.
	promote bool
	// demote, with -connect, fences the remote primary: it keeps serving
	// reads but rejects writes as stale_primary until re-promoted.
	demote bool
	// out receives all query output; nil means os.Stdout.
	out io.Writer
	// in supplies queries when q is empty; nil means os.Stdin.
	in io.Reader
	// ready, when non-nil, is called with the bound listen address once
	// the server accepts connections (tests bind ":0").
	ready func(addr string)
	// stop, when non-nil, triggers graceful server shutdown like a
	// signal would (tests cannot deliver SIGTERM portably).
	stop chan struct{}
}

func main() {
	var opt options
	flag.StringVar(&opt.model, "model", "netmodel", "built-in schema: netmodel, legacy, or legacy66")
	flag.StringVar(&opt.schemaPath, "schema", "", "load schema from a JSON document instead of a built-in model")
	flag.StringVar(&opt.dataPath, "data", "", "load a snapshot JSON file (see nepalgen)")
	flag.BoolVar(&opt.demo, "demo", false, "load the built-in Figure-1 demo topology")
	flag.StringVar(&opt.backend, "backend", "gremlin", "query backend: gremlin or relational")
	flag.StringVar(&opt.q, "q", "", "query to execute (default: read queries from stdin, one per line)")
	flag.BoolVar(&opt.explain, "explain", false, "print the operator plan instead of executing")
	flag.BoolVar(&opt.explainAnalyze, "explain-analyze", false, "execute with tracing and print the measured operator plan")
	flag.StringVar(&opt.gen, "codegen", "", "also print generated target code: sql, gremlin, script, or ddl")
	flag.BoolVar(&opt.metrics, "metrics", false, "print the engine metrics registry (Prometheus text format) after the queries")
	flag.DurationVar(&opt.slowQuery, "slow-query", 0, "log queries at least this slow with plan and metrics (0 disables)")
	flag.DurationVar(&opt.timeout, "timeout", 0, "abort queries running longer than this (0 disables)")
	flag.IntVar(&opt.maxPaths, "max-paths", 0, "abort queries emitting more than this many pathways (0 disables)")
	flag.IntVar(&opt.maxEdges, "max-edges", 0, "abort queries scanning more than this many edges (0 disables)")
	flag.StringVar(&opt.pprofAddr, "pprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")
	flag.StringVar(&opt.walDir, "wal-dir", "", "write-ahead log directory: recover the store from it on start and log every mutation durably")
	flag.BoolVar(&opt.checkpoint, "checkpoint", false, "snapshot the store and contract the write-ahead log, then exit (requires -wal-dir)")
	flag.BoolVar(&opt.fsck, "fsck", false, "verify store invariants after loading and exit nonzero on violations")
	flag.StringVar(&opt.serveAddr, "serve", "", "serve the loaded store over the HTTP/JSON query API on this address (e.g. :7474)")
	flag.IntVar(&opt.maxInFlight, "max-inflight", 0, "serve: max concurrently executing requests (0 = default 64)")
	flag.IntVar(&opt.maxQueue, "max-queue", 0, "serve: max requests waiting for a slot before 429 (0 = 2x max-inflight)")
	flag.IntVar(&opt.planCache, "plan-cache", 0, "serve: compiled-plan cache entries (0 = default 256)")
	flag.StringVar(&opt.accessLog, "access-log", "", "serve: append one JSON access-log line per request to this file (- for stderr)")
	flag.StringVar(&opt.connectURL, "connect", "", "act as a client of a running server at this URL (e.g. http://127.0.0.1:7474)")
	flag.StringVar(&opt.followURL, "follow", "", "serve: replicate from the primary at this URL into -wal-dir and serve read-only queries (read replica)")
	flag.BoolVar(&opt.watch, "watch", false, "connect: tail the server's change feed, printing one JSON event per line")
	flag.Uint64Var(&opt.watchFrom, "watch-from", 0, "watch: stream index to resume from (0 = oldest retained)")
	flag.BoolVar(&opt.top, "top", false, "connect: print the server's per-statement statistics table, then exit")
	flag.IntVar(&opt.topN, "top-n", 20, "top: max statement rows to print (0 = all tracked)")
	flag.StringVar(&opt.topSort, "top-sort", "total_time", "top: row order: total_time, calls, or mean_time")
	flag.StringVar(&opt.peers, "peers", "", "serve: comma-separated base URLs of the other cluster nodes (GET /debug/cluster probes them)")
	flag.IntVar(&opt.statsSize, "stats-size", 0, "serve: per-statement statistics table size in digests (0 = default 256, negative disables)")
	flag.BoolVar(&opt.promote, "promote", false, "connect: promote the remote replica to primary, then exit")
	flag.BoolVar(&opt.demote, "demote", false, "connect: fence the remote primary (reads keep serving, writes rejected), then exit")
	flag.Parse()

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "nepal:", err)
		os.Exit(1)
	}
}

// publishOnce guards the process-wide expvar registration (expvar panics
// on duplicate names, and tests call run repeatedly).
var publishOnce sync.Once

func run(opt options) error {
	out := opt.out
	if out == nil {
		out = os.Stdout
	}
	if opt.connectURL != "" {
		return runConnect(opt)
	}
	sch, err := loadSchema(opt.model, opt.schemaPath)
	if err != nil {
		return err
	}
	if opt.followURL != "" {
		if opt.serveAddr == "" {
			return fmt.Errorf("-follow requires -serve")
		}
		if opt.walDir == "" {
			return fmt.Errorf("-follow requires -wal-dir (a replica logs what it applies)")
		}
		if opt.demo || opt.dataPath != "" {
			return fmt.Errorf("-follow builds its store from the primary's log; drop -demo/-data")
		}
	}
	if opt.checkpoint && opt.walDir == "" {
		return fmt.Errorf("-checkpoint requires -wal-dir")
	}
	dbOpts := []core.Option{core.WithBackend(opt.backend), core.WithLimits(exec.Limits{
		MaxDuration:     opt.timeout,
		MaxPaths:        opt.maxPaths,
		MaxEdgesScanned: opt.maxEdges,
	})}
	if opt.slowQuery > 0 {
		dbOpts = append(dbOpts, core.WithSlowLog(obs.NewSlowLog(opt.slowQuery, out)))
	}
	if opt.walDir != "" {
		dbOpts = append(dbOpts, core.WithWAL(opt.walDir))
	}
	db, err := core.Open(sch, dbOpts...)
	if err != nil {
		return err
	}
	defer db.Close()
	if opt.walDir != "" {
		fmt.Fprintf(os.Stderr, "wal: recovered %s: %s\n", opt.walDir, db.RecoveryStats())
	}
	reg := db.Registry()
	if opt.pprofAddr != "" {
		publishOnce.Do(func() { reg.Publish("nepal") })
		go func() {
			if err := http.ListenAndServe(opt.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "nepal: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/ (metrics at /debug/vars)\n", opt.pprofAddr)
	}

	if opt.demo {
		if _, err := netmodel.BuildDemo(db.Store(), 1000); err != nil {
			return err
		}
	}
	if opt.dataPath != "" {
		f, err := os.Open(opt.dataPath)
		if err != nil {
			return err
		}
		snap, err := graph.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return err
		}
		stats, err := db.ApplySnapshot(snap)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %s: +%d nodes, +%d edges\n",
			opt.dataPath, stats.NodesInserted, stats.EdgesInserted)
	}

	if opt.fsck {
		return runFsck(db, out)
	}
	if opt.checkpoint {
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wal: checkpoint written to %s\n", opt.walDir)
		if opt.q == "" {
			return nil
		}
	}

	if opt.gen == "ddl" {
		fmt.Fprintln(out, codegen.DDL(sch))
		return nil
	}

	if opt.serveAddr != "" {
		return runServe(db, opt)
	}

	if opt.q != "" {
		if err := execute(db, out, opt.q, opt); err != nil {
			return err
		}
		return dumpMetrics(reg, out, opt)
	}
	in := opt.in
	if in == nil {
		in = os.Stdin
	}
	if err := eachQueryLine(in, func(line string) {
		if err := execute(db, out, line, opt); err != nil {
			fmt.Fprintln(os.Stderr, "nepal:", err)
		}
	}); err != nil {
		return err
	}
	return dumpMetrics(reg, out, opt)
}

// eachQueryLine feeds each non-empty, non-comment line of in to fn —
// the shared REPL loop for local and remote execution.
func eachQueryLine(in io.Reader, fn func(line string)) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		fn(line)
	}
	return scanner.Err()
}

// runFsck is the offline store checker: it validates every structural
// invariant of the (usually WAL-recovered) store and reports violations,
// failing the process so scripts can gate on a clean exit.
func runFsck(db *core.DB, out io.Writer) error {
	live, versions := db.Store().Counts()
	lo, hi := db.Store().UIDRange()
	if db.RecoveryStats().CheckpointLoaded {
		fmt.Fprintf(out, "fsck: loaded checkpoint format %s\n", graph.HistoryFormat)
	}
	fmt.Fprintf(out, "fsck: %d live objects, %d versions, uids [%d, %d]\n", live, versions, lo, hi)
	violations := db.Store().CheckInvariants()
	if len(violations) == 0 {
		fmt.Fprintln(out, "fsck: ok — no invariant violations")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(out, "fsck:", v.String())
	}
	return fmt.Errorf("fsck: %d invariant violations", len(violations))
}

func dumpMetrics(reg *obs.Registry, out io.Writer, opt options) error {
	if !opt.metrics {
		return nil
	}
	fmt.Fprintln(out, "-- metrics --")
	obs.WritePrometheus(out, reg)
	return nil
}

func loadSchema(model, schemaPath string) (*schema.Schema, error) {
	if schemaPath != "" {
		f, err := os.Open(schemaPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return schema.Load(f)
	}
	switch model {
	case "netmodel":
		return netmodel.Schema()
	case "legacy":
		return workload.LegacySchema(false)
	case "legacy66":
		return workload.LegacySchema(true)
	}
	return nil, fmt.Errorf("unknown model %q (use netmodel, legacy, or legacy66)", model)
}

func execute(db *core.DB, out io.Writer, src string, opt options) error {
	if opt.explain {
		text, err := db.Explain(src)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
	}
	if opt.gen != "" {
		if err := printGenerated(db, out, src, opt.gen); err != nil {
			return err
		}
	}
	if opt.explain || opt.gen != "" {
		return nil
	}
	if opt.explainAnalyze {
		stmt, err := db.Prepare(src)
		if err != nil {
			return err
		}
		text, res, err := stmt.ExplainAnalyze(context.Background(), db.Limits())
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
		fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
		return nil
	}
	res, err := db.Query(src)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Format(db.RenderPath))
	fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
	return nil
}

// printGenerated emits the retargetable translation of each range
// variable's MATCHES expression.
func printGenerated(db *core.DB, out io.Writer, src, gen string) error {
	parsed, err := query.Parse(src)
	if err != nil {
		return err
	}
	analyzed, err := query.Analyze(parsed, db.Schema())
	if err != nil {
		return err
	}
	for _, rv := range parsed.Vars {
		checked := analyzed.Checked[rv.Name]
		p, err := plan.Build(checked, db.Store().Stats())
		if err != nil {
			p = plan.BuildSeeded(checked, plan.Forward)
		}
		fmt.Fprintf(out, "-- generated code for variable %s --\n", rv.Name)
		switch gen {
		case "sql":
			at := ""
			if parsed.At != nil && !parsed.At.IsRange {
				at = parsed.At.Start.Format("2006-01-02 15:04:05")
			}
			fmt.Fprintln(out, codegen.SQL(p, at))
		case "gremlin":
			fmt.Fprintln(out, codegen.Gremlin(p))
		case "script":
			fmt.Fprintln(out, codegen.Script(p, db.Backend()))
		default:
			return fmt.Errorf("unknown codegen target %q (use sql, gremlin, script, or ddl)", gen)
		}
	}
	return nil
}
