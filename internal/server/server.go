// Package server is Nepal's network front end: a concurrent HTTP/JSON
// API over a core.DB that makes the whole query surface — NPQL with
// temporal AT forms, per-request resource limits and deadlines, EXPLAIN
// and EXPLAIN ANALYZE, prepared statements, mutations, checkpointing,
// health and metrics — reachable by remote clients (internal/client is
// the matching Go client).
//
// Request lifecycle: decode → admission governor (bounded in-flight +
// bounded wait queue; beyond both the request is rejected immediately
// with 429/ErrOverloaded instead of queueing unboundedly) → plan cache
// (parse/analyze once per distinct statement text) → executor under the
// request context (client disconnect and timeout_ms both cancel the
// query cooperatively) → JSON encoding. Every stage publishes counters
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
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/repl"
	"repro/internal/stats"
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
	// PlanCacheSize bounds the compiled-statement LRU; 0 means 256.
	PlanCacheSize int
	// DefaultLimits are the per-request resource guardrails applied when
	// a request carries none; requests may tighten or (when a field is
	// zero here) set their own.
	DefaultLimits exec.Limits
	// MaxTimeout caps any requested timeout_ms; 0 leaves requests free.
	MaxTimeout time.Duration
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
	cache     *PlanCache
	adm       *admission
	accessLog *obs.AccessLog
	traces    *obs.TraceStore
	stats     *stats.Store
	follower  *repl.Follower // non-nil on a server configured with Follow
	node      *repl.Node     // the node's role and epoch authority
	source    *repl.Source
	feed      watch.Feed
	hub       *watch.Hub
	start     time.Time
	version   string
	commit    string
	mux       *http.ServeMux
	hs        *http.Server

	// drain broadcasts shutdown to every parked long-poll and stream —
	// replication feeds and watch subscribers alike — so graceful drain
	// can never hang on an idle subscriber.
	drain     chan struct{}
	drainOnce sync.Once

	// Per-request metric handles, resolved once: registry lookups hash
	// the metric name, and these three fire on every request.
	mRequests *obs.Counter
	mLatency  *obs.Histogram
	mAdmWait  *obs.Histogram
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
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = 256
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
		cache:     NewPlanCache(cfg.PlanCacheSize, reg),
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
	if !cfg.DisableTelemetry {
		s.traces = obs.NewTraceStore(0, 0)
	}
	if cfg.StatementStatsSize >= 0 {
		s.stats = stats.NewStore(cfg.StatementStatsSize, reg)
		db.SetStatementStats(s.stats)
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/execute", s.handleExecute)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats/statements", s.handleStatements)
	s.mux.HandleFunc("POST /v1/stats/reset", s.handleStatsReset)
	s.mux.HandleFunc("GET /debug/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
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

// Cache returns the compiled-plan cache (tests inspect it).
func (s *Server) Cache() *PlanCache { return s.cache }

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

// broadcastShutdown releases every parked long-poll and stream — the
// replication feed's held requests, /v1/watch long-polls and SSE
// streams, and the standing-query hub — so a drain can never hang on an
// idle subscriber. Idempotent; shared by Shutdown and Close.
func (s *Server) broadcastShutdown() {
	s.drainOnce.Do(func() {
		close(s.drain)
		if s.source != nil {
			s.source.Close()
		}
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
		writeErr(w, r, http.StatusBadRequest, "bad_request", "decoding request body: "+err.Error())
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

// writeErr writes the JSON error envelope, stamping the request's trace
// ID into it and recording the outcome code on the request's telemetry
// so the access log and trace store classify the failure the same way
// the client saw it.
func writeErr(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	rq := obs.RequestFrom(r.Context())
	rq.Outcome = code
	rq.Error = msg
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg, TraceID: rq.TraceID}})
}

// writeQueryErr maps an execution error onto the HTTP status and typed
// code contract clients program against.
func writeQueryErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		writeErr(w, r, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, exec.ErrDeadlineExceeded):
		writeErr(w, r, http.StatusGatewayTimeout, "deadline", err.Error())
	case errors.Is(err, exec.ErrCanceled), errors.Is(err, context.Canceled):
		// 499 (client closed request): the peer is usually gone, but the
		// status still lands in access logs and tests.
		writeErr(w, r, 499, "canceled", err.Error())
	case errors.Is(err, exec.ErrLimitExceeded):
		writeErr(w, r, http.StatusUnprocessableEntity, "limit", err.Error())
	default:
		writeErr(w, r, http.StatusInternalServerError, "internal", err.Error())
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
		writeErr(w, r, http.StatusTooManyRequests, "overloaded", err.Error())
	default: // client gave up while queued
		writeErr(w, r, 499, "canceled", err.Error())
	}
	return false
}

// requestContext applies the effective timeout to the request context:
// the request's timeout_ms, capped by the config.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := time.Duration(timeoutMS) * time.Millisecond
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// effectiveLimits folds per-request limits over the server defaults.
func (s *Server) effectiveLimits(l *Limits) exec.Limits {
	out := s.cfg.DefaultLimits
	if l == nil {
		return out
	}
	if l.MaxPaths > 0 {
		out.MaxPaths = l.MaxPaths
	}
	if l.MaxEdgesScanned > 0 {
		out.MaxEdgesScanned = l.MaxEdgesScanned
	}
	if l.TimeoutMS > 0 {
		out.MaxDuration = time.Duration(l.TimeoutMS) * time.Millisecond
	}
	return out
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
		writeErr(w, r, http.StatusBadRequest, "bad_request", "empty query")
		return
	}
	src := req.Query
	if req.At != "" {
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(src)), "AT ") {
			writeErr(w, r, http.StatusBadRequest, "bad_request",
				`request "at" conflicts with the statement's own AT clause`)
			return
		}
		src = fmt.Sprintf("AT '%s' %s", req.At, src)
	}
	rq.Statement, rq.StatementHash = src, Handle(src)
	if !s.waitFresh(r.Context(), w, r, req.MinTimestamp) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.adm.release()
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	start := time.Now()
	if req.Explain == ExplainPlan {
		text, err := s.db.Explain(src)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "parse_error", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{
			Explain:   text,
			ElapsedMS: float64(time.Since(start)) / 1e6,
			TraceID:   rq.TraceID,
		})
		return
	}

	pc := rq.Root.StartChild("PlanCache", "")
	stmt, hit, err := s.cache.Get(s.db, src)
	pc.Finish()
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	rq.Digest = stmt.Digest()
	if hit {
		s.stats.CacheHit(stmt.Digest(), stmt.NormalizedText())
	}
	ex := rq.Root.StartChild("Execute", "")
	var text string
	var res *exec.Result
	if req.Explain == ExplainAnalyze {
		text, res, err = stmt.ExplainAnalyze(ctx, s.effectiveLimits(req.Limits))
	} else {
		res, err = stmt.ExecTraced(ctx, s.effectiveLimits(req.Limits), ex)
	}
	ex.Finish()
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	recordResult(rq, res)
	enc := rq.Root.StartChild("Encode", "")
	resp := s.resultOut(res, hit, time.Since(start))
	resp.Explain = text
	resp.TraceID = rq.TraceID
	s.stampStaleness(w, &resp)
	writeJSON(w, http.StatusOK, resp)
	enc.Finish()
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if !decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "empty query")
		return
	}
	rq := obs.RequestFrom(r.Context())
	rq.Statement, rq.StatementHash = req.Query, Handle(req.Query)
	stmt, hit, err := s.cache.Get(s.db, req.Query)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	rq.Digest = stmt.Digest()
	writeJSON(w, http.StatusOK, PrepareResponse{Handle: Handle(req.Query), Cached: hit, Digest: stmt.Digest()})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	rq := obs.RequestFrom(r.Context())
	dec := rq.Root.StartChild("Decode", "")
	var req ExecuteRequest
	ok := decode(w, r, &req)
	dec.Finish()
	if !ok {
		return
	}
	pc := rq.Root.StartChild("PlanCache", "")
	stmt, found := s.cache.GetHandle(req.Handle)
	pc.Finish()
	if !found {
		writeErr(w, r, http.StatusGone, "unprepared",
			fmt.Sprintf("handle %q is not prepared (evicted or never prepared); re-prepare", req.Handle))
		return
	}
	rq.StatementHash, rq.Digest = req.Handle, stmt.Digest()
	// Executing by handle is by definition a plan-cache hit.
	s.stats.CacheHit(stmt.Digest(), stmt.NormalizedText())
	if !s.waitFresh(r.Context(), w, r, req.MinTimestamp) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.adm.release()
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	ex := rq.Root.StartChild("Execute", "")
	res, err := stmt.ExecTraced(ctx, s.effectiveLimits(req.Limits), ex)
	ex.Finish()
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	recordResult(rq, res)
	enc := rq.Root.StartChild("Encode", "")
	resp := s.resultOut(res, true, time.Since(start))
	resp.TraceID = rq.TraceID
	s.stampStaleness(w, &resp)
	writeJSON(w, http.StatusOK, resp)
	enc.Finish()
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) {
		return
	}
	rq := obs.RequestFrom(r.Context())
	dec := rq.Root.StartChild("Decode", "")
	var req IngestRequest
	ok := decode(w, r, &req)
	dec.Finish()
	if !ok {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "empty ops")
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.adm.release()
	// The batch is one atomic store write: every op is turned into its
	// mutation record first, then one Mutate validates, logs (one WAL
	// group, one sync) and applies them all, or none. It runs under the
	// Execute phase span so a WAL-backed store's append span nests inside
	// the request trace.
	ms := make([]*graph.Mutation, len(req.Ops))
	for i, op := range req.Ops {
		m, err := mutationOf(op)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "bad_request", rejectedMsg(i, op, err))
			return
		}
		ms[i] = m
	}
	ex := rq.Root.StartChild("Execute", "")
	err := s.db.Store().Mutate(obs.ContextWithSpan(r.Context(), ex), ms...)
	ex.Finish()
	if err != nil {
		var be *graph.BatchError
		switch {
		case errors.As(err, &be):
			err = errors.New(rejectedMsg(be.Index, req.Ops[be.Index], be.Err))
		case len(ms) == 1:
			err = errors.New(rejectedMsg(0, req.Ops[0], err))
		default:
			err = fmt.Errorf("%v; nothing was applied", err)
		}
		writeErr(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	resp := IngestResponse{UIDs: make([]int64, len(ms)), Applied: len(ms)}
	for i, m := range ms {
		if m.Op == graph.OpInsertNode || m.Op == graph.OpInsertEdge {
			resp.UIDs[i] = int64(m.UID)
		}
	}
	resp.Epoch = s.stampEpoch(w)
	writeJSON(w, http.StatusOK, resp)
}

// rejectedMsg names the op that rejected an ingest batch. A batch is
// atomic, so nothing of it was applied.
func rejectedMsg(i int, op IngestOp, err error) string {
	return fmt.Sprintf("op %d (%s): %v; nothing was applied", i, op.Op, err)
}

// ingestOps maps the wire's op names to the store's.
var ingestOps = map[string]graph.MutationOp{
	"insert-node": graph.OpInsertNode,
	"insert-edge": graph.OpInsertEdge,
	"update":      graph.OpUpdate,
	"delete":      graph.OpDelete,
}

// mutationOf turns one wire op into the store's mutation record — the
// same record the WAL hook logs.
func mutationOf(op IngestOp) (*graph.Mutation, error) {
	kind, ok := ingestOps[op.Op]
	if !ok {
		return nil, fmt.Errorf("unknown op %q (use insert-node, insert-edge, update, delete)", op.Op)
	}
	return &graph.Mutation{Op: kind, UID: graph.UID(op.UID), Class: op.Class,
		Src: graph.UID(op.Src), Dst: graph.UID(op.Dst), Fields: graph.Fields(op.Fields)}, nil
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) {
		return
	}
	start := time.Now()
	if err := s.db.Checkpoint(); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{
		OK:        true,
		ElapsedMS: float64(time.Since(start)) / 1e6,
	})
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

// handleMetrics content-negotiates the registry: the structured JSON
// snapshot for application/json, Prometheus text exposition otherwise.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
		return
	}
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
		agg := &Agg{Exists: res.Agg.Exists, Current: res.Agg.Current, Set: intervalsOut(res.Agg.Set)}
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
		cells += len(row.Values)
		for _, v := range row.Values {
			if p, ok := v.(*plan.Pathway); ok {
				uids += len(p.Elems)
			}
		}
	}
	vals, elems := make([]Value, cells), make([]int64, uids)
	out.Rows = make([]Row, len(res.Rows))
	for i, row := range res.Rows {
		n := len(row.Values)
		wr := Row{Values: vals[:n:n], Coexist: intervalsOut(row.Coexist)}
		vals = vals[n:]
		for j, v := range row.Values {
			p, ok := v.(*plan.Pathway)
			if !ok {
				wr.Values[j] = Value{Scalar: v}
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
				Validity: intervalsOut(p.Validity),
				Rendered: s.db.RenderPath(*p),
			}}
		}
		out.Rows[i] = wr
	}
	return out
}
