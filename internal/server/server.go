// Package server is Nepal's network front end: a concurrent HTTP/JSON
// API over a core.DB that makes the whole query surface — NPQL with
// temporal AT forms, per-request resource limits and deadlines, EXPLAIN
// and EXPLAIN ANALYZE, prepared statements, mutations, checkpointing,
// health and metrics — reachable by remote clients (internal/client is
// the matching Go client).
//
// Request lifecycle: decode → admission governor (bounded in-flight +
// bounded wait queue; beyond both the request is rejected immediately
// with 429/ErrOverloaded instead of queueing unboundedly) → the DB's
// statement table (compile once per statement shape, bind the literals
// per request) → executor under the request context and the DB's
// limits, which the request's limits and timeout_ms only tighten (a
// client disconnect and a crossed bound both abort the query
// cooperatively) → JSON encoding. Every stage publishes counters
// into the obs registry, so /metrics exposes cache hit rates, admission
// rejections, and in-flight gauges next to the engine's own metrics.
//
// Every request also flows through the telemetry middleware
// (telemetry.go): it assigns or adopts a trace ID (X-Nepal-Trace), opens
// a "Request" root span whose children are the phases above, emits one
// access-log line, and tail-samples completed traces into an in-memory
// store served at /debug/traces.
//
// Shutdown is graceful: Shutdown stops accepting connections, drains
// in-flight requests, then closes the DB so a WAL-backed store syncs its
// final segment — no acknowledged mutation is lost.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/repl"
	"repro/internal/stats"
	"repro/internal/temporal"
	"repro/internal/watch"
)

// Config sizes the server. The zero value serves with the defaults
// documented per field.
type Config struct {
	// MaxInFlight caps concurrently executing requests; 0 means 64.
	MaxInFlight int
	// MaxQueue caps requests waiting for an execution slot; past it the
	// server answers 429. 0 means 2×MaxInFlight; negative means no queue.
	MaxQueue int
	// Registry receives the server's metrics and backs /metrics; nil
	// creates a private registry.
	Registry *obs.Registry
	// AccessLog receives one JSON line per request (see obs.Request);
	// nil disables access logging.
	AccessLog io.Writer
	// DisableTelemetry turns off the spans and the trace store — the
	// dark baseline obs.telemetry_cost_us in BENCHMARK.json is measured
	// against. Trace IDs, counters, histograms, and the access log
	// remain: they are cheap and load-bearing for correlation.
	DisableTelemetry bool
	// Follow makes this server a read replica of Follow.Primary:
	// mutations are rejected ("read_only"), responses carry the
	// applied-through watermark, and /readyz reports replication lag.
	// The db must be WAL-backed: the replica logs what it applies there.
	// New builds the replication link over the db from this config,
	// publishing into the server's registry, and starts it once the
	// server is wired; Shutdown and Close stop it. See replica.go.
	Follow *repl.FollowerConfig
	// MaxStalenessWait bounds how long a min_timestamp read blocks on a
	// lagging replica before the typed "replica_lagging" error; 0 means
	// 2s.
	MaxStalenessWait time.Duration
	// StatementStatsSize bounds how many distinct statement digests the
	// per-statement statistics store tracks before folding the coldest
	// into its "other" bucket; 0 means stats.DefaultMaxStatements,
	// negative disables the store entirely.
	StatementStatsSize int
	// Peers lists the base URLs of the other nodes of this deployment
	// (e.g. "http://10.0.0.2:7687"). GET /debug/cluster probes each
	// peer's /readyz and returns the cluster-wide role/epoch/lag map.
	Peers []string
}

// Server serves one core.DB over HTTP. Create with New, attach with
// Handler (tests) or Serve/ListenAndServe (production), stop with
// Shutdown.
type Server struct {
	db        *core.DB
	cfg       Config
	reg       *obs.Registry
	adm       *admission
	accessLog *obs.AccessLog
	traces    *obs.TraceStore
	stats     *stats.Store
	follower  *repl.Follower // non-nil on a server configured with Follow
	node      *repl.Node     // the node's role and epoch authority
	feed      watch.Feed
	hub       *watch.Hub
	start     time.Time
	version   string
	commit    string
	mux       *http.ServeMux
	hs        *http.Server

	// drain broadcasts shutdown to every parked repl.LongPoll — /v1/wal
	// feeds and /v1/watch long-polls and SSE streams alike — so graceful
	// drain can never hang on an idle subscriber.
	drain     chan struct{}
	drainOnce sync.Once

	// Per-request metric handles, resolved once: registry lookups hash
	// the metric name, and these fire on every request.
	mRequests *obs.Counter
	mLatency  *obs.Histogram
	mAdmWait  *obs.Histogram
	// Statement-table hits and misses of this server's requests (a hit
	// binds a compiled shape; a miss compiles, or finds no shape for a
	// handle).
	mPlanHits   *obs.Counter
	mPlanMisses *obs.Counter
}

// New returns a server over db. The server's own components record into
// cfg.Registry (or a private registry when nil), and the db's metrics are
// published there too (core.DB.Instrument), so /metrics exposes engine,
// store, WAL, cache, and admission metrics in one dump.
func New(db *core.DB, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.MaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	db.Instrument(reg)
	s := &Server{
		db:        db,
		cfg:       cfg,
		reg:       reg,
		adm:       newAdmission(cfg.MaxInFlight, cfg.MaxQueue, reg),
		accessLog: obs.NewAccessLog(cfg.AccessLog),
		start:     time.Now(),
		mux:       http.NewServeMux(),
		drain:     make(chan struct{}),
	}
	s.version, s.commit = obs.RegisterBuildInfo(reg, s.start)
	obs.RegisterRuntime(reg)
	s.mRequests = reg.Counter("server.requests")
	s.mLatency = reg.Histogram("server.request_latency_ms")
	s.mAdmWait = reg.Histogram("server.admission_wait_ms")
	s.mPlanHits = reg.Counter("server.plan_cache_hits")
	s.mPlanMisses = reg.Counter("server.plan_cache_misses")
	reg.GaugeFunc("server.plan_cache_size", func() float64 {
		n, _ := db.StatementTable()
		return float64(n)
	})
	reg.GaugeFunc("server.plan_cache_evictions", func() float64 {
		_, n := db.StatementTable()
		return float64(n)
	})
	if !cfg.DisableTelemetry {
		s.traces = obs.NewTraceStore(0, 0)
	}
	if cfg.StatementStatsSize >= 0 {
		s.stats = stats.NewStore(cfg.StatementStatsSize, reg)
		db.SetStatementStats(s.stats)
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats/statements", s.handleStatements)
	s.mux.HandleFunc("POST /v1/stats/reset", s.handleStatsReset)
	s.mux.HandleFunc("GET /debug/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("/", s.handleUnrouted)
	if cfg.Follow != nil {
		if db.WAL() == nil {
			panic("server: Config.Follow requires a WAL-backed DB: a replica logs what it applies")
		}
		fc := *cfg.Follow
		fc.Registry = reg
		s.follower = repl.NewFollower(db.Store(), db.WAL(), fc)
	}
	s.node = repl.NewNode(db.Store(), db.WAL(), s.follower)
	s.mountReplication()
	s.mountWatch()
	s.hs = &http.Server{Handler: s.telemetry()}
	if s.follower != nil {
		s.follower.Start()
	}
	return s
}

// Follower returns the replication link of a server configured with
// Follow (nil on a primary).
func (s *Server) Follower() *repl.Follower { return s.follower }

// Registry returns the registry the server publishes into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Traces returns the in-memory trace store (nil when telemetry is
// disabled).
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// Stats returns the per-statement statistics store (nil when disabled
// via a negative Config.StatementStatsSize).
func (s *Server) Stats() *stats.Store { return s.stats }

// Handler returns the server's full HTTP handler, for httptest harnesses
// and custom listeners.
func (s *Server) Handler() http.Handler { return s.telemetry() }

// Serve accepts connections on ln until Shutdown (or a fatal listener
// error). It returns http.ErrServerClosed after a clean Shutdown, like
// net/http.
func (s *Server) Serve(ln net.Listener) error { return s.hs.Serve(ln) }

// ListenAndServe listens on addr and serves; see Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// broadcastShutdown releases every parked long-poll and stream so a
// drain can never hang on an idle subscriber: closing drain answers the
// /v1/wal feed's held requests and the /v1/watch long-polls and SSE
// streams (repl.LongPoll), and closing the hub ends the standing-query
// streams. The follower stops too. Idempotent; shared by Shutdown and
// Close.
func (s *Server) broadcastShutdown() {
	s.drainOnce.Do(func() {
		close(s.drain)
		if s.hub != nil {
			s.hub.Close()
		}
		if s.follower != nil {
			s.follower.Stop()
		}
	})
}

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires, then the DB closes so a WAL-backed
// store syncs its final segment. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.broadcastShutdown()
	err := s.hs.Shutdown(ctx)
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- request plumbing ----

// maxBodyBytes bounds request bodies; inventories ship big ingest
// batches, queries are small.
const maxBodyBytes = 16 << 20

func decode[T any](w http.ResponseWriter, r *http.Request, into *T) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", "decoding request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// writeQueryErr maps an execution error onto the HTTP status and typed
// code contract clients program against.
func writeQueryErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		obs.WriteError(w, r, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, exec.ErrDeadlineExceeded):
		obs.WriteError(w, r, http.StatusGatewayTimeout, "deadline", err.Error())
	case errors.Is(err, exec.ErrCanceled), errors.Is(err, context.Canceled):
		// 499 (client closed request): the peer is usually gone, but the
		// status still lands in access logs and tests.
		obs.WriteError(w, r, 499, "canceled", err.Error())
	case errors.Is(err, exec.ErrLimitExceeded):
		obs.WriteError(w, r, http.StatusUnprocessableEntity, "limit", err.Error())
	default:
		obs.WriteError(w, r, http.StatusInternalServerError, "internal", err.Error())
	}
}

// admit runs the admission governor for one request. It returns false
// with the response already written when the request is not admitted.
// The wait for a slot is measured into server.admission_wait_ms, the
// request's Admission phase span, and its access-log line.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	rq := obs.RequestFrom(r.Context())
	sp := rq.Root.StartChild("Admission", "")
	start := time.Now()
	err := s.adm.acquire(r.Context())
	rq.AdmissionWait = time.Since(start)
	sp.Finish()
	s.mAdmWait.Observe(float64(rq.AdmissionWait) / 1e6)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		obs.WriteError(w, r, http.StatusTooManyRequests, "overloaded", err.Error())
	default: // client gave up while queued
		obs.WriteError(w, r, 499, "canceled", err.Error())
	}
	return false
}

// requestLimits are a request's own bounds: its timeout_ms and its
// limits, timeout_ms as MaxDuration, the tighter of the two durations
// winning. The DB's limits still govern (core.Prepared.Run folds these
// into them), so a request can only tighten them.
func requestLimits(timeoutMS int64, l *Limits) exec.Limits {
	lim := exec.Limits{MaxDuration: millis(timeoutMS)}
	if l == nil {
		return lim
	}
	return lim.Tighten(exec.Limits{MaxPaths: l.MaxPaths, MaxEdgesScanned: l.MaxEdgesScanned,
		MaxDuration: millis(l.TimeoutMS)})
}

// millis is a request's timeout_ms as a duration, clamped before it is
// multiplied: a count past the largest time.Duration stays the largest
// instead of wrapping into a short or negative one, and a negative count
// is no bound, like zero.
func millis(ms int64) time.Duration {
	return time.Duration(min(max(ms, 0), int64(math.MaxInt64/time.Millisecond))) * time.Millisecond
}

// ---- handlers ----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rq := obs.RequestFrom(r.Context())
	dec := rq.Root.StartChild("Decode", "")
	var req QueryRequest
	ok := decode(w, r, &req)
	dec.Finish()
	if !ok {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", "empty query")
		return
	}
	src := req.Query
	if req.At != "" {
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(src)), "AT ") {
			obs.WriteError(w, r, http.StatusBadRequest, "bad_request",
				`request "at" conflicts with the statement's own AT clause`)
			return
		}
		src = fmt.Sprintf("AT '%s' %s", req.At, src)
	}
	rq.Statement = src
	if !s.waitFresh(w, r, req.MinTimestamp) || !s.admit(w, r) {
		return
	}
	defer s.adm.release()
	start := time.Now()
	pc := rq.Root.StartChild("PlanCache", "")
	stmt, err := s.db.Prepare(src)
	pc.Finish()
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	s.recordPrepared(rq, stmt)
	if req.Explain == ExplainPlan {
		writeJSON(w, http.StatusOK, QueryResponse{
			Explain:   stmt.Explain(),
			Cached:    stmt.Cached(),
			ElapsedMS: float64(time.Since(start)) / 1e6,
			Digest:    stmt.Digest(),
			TraceID:   rq.TraceID,
		})
		return
	}
	s.answer(w, r, stmt, req.Explain == ExplainAnalyze, requestLimits(req.TimeoutMS, req.Limits), start)
}

// answer executes a bound statement under the request's context and
// limits, with operator-DAG tracing under the Execute phase span, and
// writes its result — with the traced run rendered when analyze. Only
// with telemetry off does analysis need a span of its own.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, stmt *core.Prepared, analyze bool, lim exec.Limits, start time.Time) {
	rq := obs.RequestFrom(r.Context())
	ex := rq.Root.StartChild("Execute", "")
	if ex == nil && analyze {
		ex = obs.NewSpan("Execute", "")
	}
	res, err := stmt.Run(r.Context(), exec.RunOptions{Limits: lim, Parent: ex})
	ex.Finish()
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	recordResult(rq, res)
	enc := rq.Root.StartChild("Encode", "")
	resp := s.resultOut(res, stmt.Cached(), time.Since(start))
	if analyze {
		resp.Explain = stmt.ExplainTrace(res)
	}
	resp.TraceID = rq.TraceID
	s.stampStaleness(w, &resp)
	writeJSON(w, http.StatusOK, resp)
	enc.Finish()
}

// recordPrepared counts a statement-table hit or miss and tags the
// request with the statement's digest.
func (s *Server) recordPrepared(rq *obs.Request, stmt *core.Prepared) {
	rq.Digest = stmt.Digest()
	if !stmt.Cached() {
		s.mPlanMisses.Add(1)
		return
	}
	s.mPlanHits.Add(1)
	s.stats.CacheHit(stmt.Digest(), stmt.NormalizedText())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) {
		return
	}
	start := time.Now()
	if err := s.db.Checkpoint(); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{
		OK:        true,
		ElapsedMS: float64(time.Since(start)) / 1e6,
	})
}

// routeMethods are the methods handleUnrouted tries a path with.
var routeMethods = []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete}

// handleUnrouted answers what no other route takes, in the typed
// envelope every failure uses: 405 method_not_allowed with the Allow
// header when the path has routes for other methods, 404 not_found
// otherwise.
func (s *Server) handleUnrouted(w http.ResponseWriter, r *http.Request) {
	var allow []string
	for _, m := range routeMethods {
		probe := r.WithContext(r.Context())
		probe.Method = m
		if _, pattern := s.mux.Handler(probe); pattern != "/" {
			allow = append(allow, m)
		}
	}
	if len(allow) == 0 {
		obs.WriteError(w, r, http.StatusNotFound, "not_found", fmt.Sprintf("no route for %s", r.URL.Path))
		return
	}
	w.Header().Set("Allow", strings.Join(allow, ", "))
	obs.WriteError(w, r, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("%s %s: allowed %s", r.Method, r.URL.Path, strings.Join(allow, ", ")))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	role := "primary"
	if s.node.Replica() {
		role = "replica"
	}
	fenced, _ := s.node.Fenced()
	resp := HealthResponse{
		Status:        "ok",
		Role:          role,
		Backend:       s.db.Backend(),
		InFlight:      s.adm.inFlight(),
		Queued:        s.adm.queuedNow(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Version:       s.version,
		Commit:        s.commit,
		Epoch:         s.node.Epoch(),
		Fenced:        fenced,
	}
	if s.db.WAL() != nil {
		rs := s.db.RecoveryStats()
		resp.Recovery = &RecoveryInfo{
			CheckpointLoaded: rs.CheckpointLoaded,
			Segments:         rs.Segments,
			RecordsApplied:   rs.RecordsApplied,
			RecordsSkipped:   rs.RecordsSkipped,
			TailTruncated:    rs.TailTruncated,
			DroppedBytes:     rs.DroppedBytes,
			StaleTempRemoved: rs.StaleTempRemoved,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics writes the registry in the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	obs.WritePrometheus(w, s.reg)
	// Per-digest statement series ride the same scrape, bounded to the
	// top statements by total time so cardinality stays fixed.
	stats.WritePrometheus(w, s.stats, 0)
}

// ---- result conversion ----

func (s *Server) resultOut(res *exec.Result, cached bool, elapsed time.Duration) QueryResponse {
	out := QueryResponse{
		Columns: res.Columns,
		Metrics: Metrics{
			AnchorRecords:    res.Metrics.AnchorRecords,
			EdgesScanned:     res.Metrics.EdgesScanned,
			ElementsConsumed: res.Metrics.ElementsConsumed,
			ElementsRejected: res.Metrics.ElementsRejected,
			PartialsExplored: res.Metrics.PartialsExplored,
			PathsEmitted:     res.Metrics.PathsEmitted,
		},
		Cached:    cached,
		ElapsedMS: float64(elapsed) / 1e6,
		Digest:    res.Digest,
	}
	if res.Agg != nil {
		agg := &Agg{Exists: res.Agg.Exists, Current: res.Agg.Current, Set: intervalsOut(res.Agg.Set, res.Agg.Bound)}
		if !res.Agg.Time.IsZero() {
			t := res.Agg.Time
			agg.Time = &t
		}
		out.Agg = agg
	}
	if len(res.Rows) == 0 {
		return out
	}
	// One slab backs every row's Values, one every pathway's Elems.
	cells, uids := 0, 0
	for _, row := range res.Rows {
		vals := row.Values()
		cells += len(vals)
		for _, v := range vals {
			if p, ok := v.(*plan.Pathway); ok {
				uids += len(p.Elems)
			}
		}
	}
	vals, elems := make([]Value, cells), make([]int64, uids)
	out.Rows = make([]Row, len(res.Rows))
	for i, row := range res.Rows {
		rv := row.Values()
		n := len(rv)
		wr := Row{Values: vals[:n:n], Coexist: intervalsOut(row.Coexist(), temporal.Time)}
		vals = vals[n:]
		for j, v := range rv {
			p, ok := v.(*plan.Pathway)
			if !ok {
				if v != nil {
					wr.Values[j] = Value{Scalar: &Scalar{v}}
				}
				continue
			}
			m := len(p.Elems)
			wire := elems[:m:m]
			elems = elems[m:]
			for k, uid := range p.Elems {
				wire[k] = int64(uid)
			}
			wr.Values[j] = Value{Pathway: &Pathway{
				Elems:    wire,
				Validity: intervalsOut(p.Validity, temporal.Time),
				Rendered: s.db.RenderPath(*p),
			}}
		}
		out.Rows[i] = wr
	}
	return out
}
