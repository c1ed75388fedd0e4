package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// This file is the HTTP/JSON wire contract: the request and response
// bodies of every /v1 endpoint. internal/client imports these types, so
// the two sides can never drift; external callers see plain JSON with
// snake_case keys and RFC 3339 timestamps.

// HeaderEpoch is the node-level primary-epoch header. Servers stamp it
// on query and ingest responses (the same value appears in the JSON
// body as "epoch"); clients echo the highest epoch they have ever seen
// back on mutations, which is how a stale primary that was partitioned
// away during a failover learns it was superseded and fences itself.
// Distinct from repl.HeaderEpoch (X-Nepal-Wal-Epoch), which rides the
// WAL feed between nodes.
const HeaderEpoch = "X-Nepal-Epoch"

// ExplainMode selects how /v1/query treats the statement: execute it
// (""), return the textual plan without executing (ExplainPlan), or
// execute with operator tracing and return the annotated plan alongside
// the rows (ExplainAnalyze). The JSON form accepts `true` (plan) and the
// strings "plan" / "analyze", mirroring the CLI flags.
type ExplainMode string

const (
	ExplainNone    ExplainMode = ""
	ExplainPlan    ExplainMode = "plan"
	ExplainAnalyze ExplainMode = "analyze"
)

// UnmarshalJSON accepts `false`/`true`/`"plan"`/`"analyze"`.
func (m *ExplainMode) UnmarshalJSON(data []byte) error {
	switch {
	case bytes.Equal(data, []byte("true")):
		*m = ExplainPlan
		return nil
	case bytes.Equal(data, []byte("false")), bytes.Equal(data, []byte("null")):
		*m = ExplainNone
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf(`explain: want true, "plan", or "analyze"`)
	}
	switch ExplainMode(s) {
	case ExplainNone, ExplainPlan, ExplainAnalyze:
		*m = ExplainMode(s)
		return nil
	}
	return fmt.Errorf("explain: unknown mode %q", s)
}

// Limits is the wire form of exec.Limits. TimeoutMS maps to MaxDuration.
type Limits struct {
	MaxPaths        int   `json:"max_paths,omitempty"`
	MaxEdgesScanned int   `json:"max_edges_scanned,omitempty"`
	TimeoutMS       int64 `json:"timeout_ms,omitempty"`
}

// Exec converts to the executor's limits type.
func (l *Limits) Exec() exec.Limits {
	if l == nil {
		return exec.Limits{}
	}
	return exec.Limits{
		MaxPaths:        l.MaxPaths,
		MaxEdgesScanned: l.MaxEdgesScanned,
		MaxDuration:     time.Duration(l.TimeoutMS) * time.Millisecond,
	}
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Query is the NPQL statement text.
	Query string `json:"query"`
	// At, when non-empty ("2006-01-02 15:04:05"), runs the query against
	// the snapshot at that time — shorthand for an AT clause, rejected if
	// the statement already carries one.
	At string `json:"at,omitempty"`
	// Explain selects plan-only or traced execution; see ExplainMode.
	Explain ExplainMode `json:"explain,omitempty"`
	// TimeoutMS bounds the request wall clock; it becomes the request
	// context's deadline, so the query aborts cooperatively server-side.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Limits are per-request resource guardrails; nil inherits the
	// server's defaults.
	Limits *Limits `json:"limits,omitempty"`
	// MinTimestamp (RFC3339 or "2006-01-02 15:04:05") demands the answer
	// reflect every mutation at or before it. On a primary it is free;
	// on a replica the request waits (bounded) for replication to catch
	// up, failing with the typed "replica_lagging" error if it cannot.
	MinTimestamp string `json:"min_timestamp,omitempty"`
}

// PrepareRequest is the body of POST /v1/prepare.
type PrepareRequest struct {
	Query string `json:"query"`
}

// PrepareResponse acknowledges a prepared statement: Handle names the
// cached compiled plan for /v1/execute, Cached reports whether the plan
// was already resident (a plan-cache hit).
type PrepareResponse struct {
	Handle string `json:"handle"`
	Cached bool   `json:"cached"`
	// Digest is the statement's literal-masked fingerprint: literal-only
	// variants of one statement share it, so clients can correlate their
	// prepared handles with the per-digest statistics surfaces.
	Digest string `json:"digest,omitempty"`
}

// ExecuteRequest is the body of POST /v1/execute: a handle from
// /v1/prepare plus per-request governance. If the plan was evicted the
// server answers 410 with code "unprepared"; clients re-prepare.
type ExecuteRequest struct {
	Handle    string  `json:"handle"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	Limits    *Limits `json:"limits,omitempty"`
	// MinTimestamp is the bounded-staleness demand; see QueryRequest.
	MinTimestamp string `json:"min_timestamp,omitempty"`
}

// Interval is the wire form of temporal.Interval. A nil End means the
// interval is still current (the store's Forever sentinel).
type Interval struct {
	Start time.Time  `json:"start"`
	End   *time.Time `json:"end,omitempty"`
}

func intervalsOut(s temporal.Set) []Interval {
	if len(s) == 0 {
		return nil
	}
	out := make([]Interval, len(s))
	for i, iv := range s {
		out[i] = Interval{Start: iv.Start}
		if !iv.IsCurrent() {
			end := iv.End
			out[i].End = &end
		}
	}
	return out
}

// Temporal converts back to a temporal.Set.
func IntervalsIn(ivs []Interval) temporal.Set {
	if len(ivs) == 0 {
		return nil
	}
	out := make(temporal.Set, len(ivs))
	for i, iv := range ivs {
		end := temporal.Forever
		if iv.End != nil {
			end = *iv.End
		}
		out[i] = temporal.Interval{Start: iv.Start, End: end}
	}
	return out
}

// Pathway is the wire form of plan.Pathway plus its human rendering.
type Pathway struct {
	// Elems holds the element UIDs in pathway order (even positions are
	// nodes, odd are edges) — the handle for PathEvolution-style drill-in.
	Elems []int64 `json:"elems"`
	// Validity holds the maximal assertion ranges.
	Validity []Interval `json:"validity,omitempty"`
	// Rendered is the server-side rendering ("vm-1 -[HostedOn]-> host-2").
	Rendered string `json:"rendered,omitempty"`
}

// Plan converts back to the engine's pathway type.
func (p *Pathway) Plan() plan.Pathway {
	elems := make([]graph.UID, len(p.Elems))
	for i, e := range p.Elems {
		elems[i] = graph.UID(e)
	}
	return plan.Pathway{Elems: elems, Validity: IntervalsIn(p.Validity)}
}

// Value is one projected cell: exactly one of Pathway or Scalar is set.
// Scalars survive the wire as JSON natives (strings, numbers, booleans).
type Value struct {
	Pathway *Pathway `json:"pathway,omitempty"`
	Scalar  any      `json:"scalar,omitempty"`
}

// Row is one result tuple.
type Row struct {
	Values []Value `json:"values"`
	// Coexist reports when all bound pathways coexisted (query-level AT).
	Coexist []Interval `json:"coexist,omitempty"`
}

// Agg is the wire form of exec.AggValue.
type Agg struct {
	Exists  bool       `json:"exists"`
	Time    *time.Time `json:"time,omitempty"`
	Current bool       `json:"current,omitempty"`
	Set     []Interval `json:"set,omitempty"`
}

// Metrics is the wire form of plan.Metrics.
type Metrics struct {
	AnchorRecords    int `json:"anchor_records"`
	EdgesScanned     int `json:"edges_scanned"`
	ElementsConsumed int `json:"elements_consumed"`
	ElementsRejected int `json:"elements_rejected"`
	PartialsExplored int `json:"partials_explored"`
	PathsEmitted     int `json:"paths_emitted"`
}

// QueryResponse is the body answered by /v1/query and /v1/execute.
type QueryResponse struct {
	Columns []string `json:"columns,omitempty"`
	Rows    []Row    `json:"rows,omitempty"`
	Agg     *Agg     `json:"agg,omitempty"`
	// Explain carries the plan text (explain=plan) or the EXPLAIN ANALYZE
	// rendering (explain=analyze).
	Explain string  `json:"explain,omitempty"`
	Metrics Metrics `json:"metrics"`
	// Cached reports whether the statement came from the plan cache.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Digest is the statement's literal-masked fingerprint — the key into
	// GET /v1/stats/statements, the slow log, and the per-digest /metrics
	// series.
	Digest string `json:"digest,omitempty"`
	// TraceID identifies the request's end-to-end trace; while retained,
	// the full span tree resolves at /debug/traces/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
	// AppliedThrough, on responses from a replica, is the replication
	// watermark: the answer reflects every primary mutation at or before
	// this timestamp (also sent as the X-Nepal-Applied-Through header).
	AppliedThrough string `json:"applied_through,omitempty"`
	// Epoch is the primary epoch of the log this answer derives from
	// (also sent as the X-Nepal-Epoch header). A client that has seen a
	// higher epoch knows this answer predates the latest failover.
	Epoch uint64 `json:"epoch,omitempty"`
}

// IngestOp is one mutation of a POST /v1/ingest batch.
type IngestOp struct {
	// Op is "insert-node", "insert-edge", "update", or "delete".
	Op    string `json:"op"`
	Class string `json:"class,omitempty"`
	// Src and Dst are the endpoint node UIDs of an insert-edge.
	Src int64 `json:"src,omitempty"`
	Dst int64 `json:"dst,omitempty"`
	// UID targets update/delete.
	UID    int64          `json:"uid,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

// IngestRequest is the body of POST /v1/ingest. A batch is atomic: its
// ops apply in order, each seeing the effects of the ops before it, and
// either all of them apply or none does. With a WAL-backed store the
// batch is logged as one group — one write, one sync — before any of it
// is visible, so an acked batch survives a crash whole. A rejected batch
// answers 400 naming the failing op; nothing of it was applied or
// logged.
type IngestRequest struct {
	Ops []IngestOp `json:"ops"`
}

// IngestResponse acknowledges a whole batch: the UIDs created by insert
// ops (in op order, 0 for non-inserts) and the number of ops applied,
// which is always the number of ops sent.
type IngestResponse struct {
	UIDs    []int64 `json:"uids"`
	Applied int     `json:"applied"`
	// Epoch is the primary epoch these ops were acked under (also the
	// X-Nepal-Epoch header). Clients track the highest epoch seen and
	// refuse to fall back to a lower-epoch primary.
	Epoch uint64 `json:"epoch,omitempty"`
}

// CheckpointResponse acknowledges a completed checkpoint.
type CheckpointResponse struct {
	OK        bool    `json:"ok"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ReadyResponse is the body of GET /readyz: whether this node can serve
// reads at its advertised staleness bound, and — on replicas — the full
// replication status behind that verdict.
type ReadyResponse struct {
	// Status is "ready", "syncing" (no primary contact yet), or
	// "lagging" (behind by more than the configured tolerance).
	Status string `json:"status"`
	// Role is "primary" or "replica"; a promoted replica reports
	// "primary".
	Role string `json:"role"`
	// AppliedIndex is the count of replicated records applied locally.
	AppliedIndex uint64 `json:"applied_index,omitempty"`
	// AppliedThrough is the staleness watermark (RFC3339Nano).
	AppliedThrough string `json:"applied_through,omitempty"`
	// PrimaryNext is the primary's stream end as of the last contact.
	PrimaryNext uint64 `json:"primary_next,omitempty"`
	// LagRecords is PrimaryNext - AppliedIndex (0 when caught up).
	LagRecords uint64 `json:"lag_records"`
	CaughtUp   bool   `json:"caught_up,omitempty"`
	Promoted   bool   `json:"promoted,omitempty"`
	Reconnects uint64 `json:"reconnects,omitempty"`
	Bootstraps uint64 `json:"bootstraps,omitempty"`
	LastError  string `json:"last_error,omitempty"`
	// Epoch is the primary epoch this node is pinned to (replica) or
	// serving under (primary).
	Epoch uint64 `json:"epoch,omitempty"`
	// Fenced reports a superseded primary: it knows a higher epoch exists
	// and rejects mutations with "stale_primary" until re-promoted.
	Fenced bool `json:"fenced,omitempty"`
	// Diverged reports a parked replica whose applied history forked from
	// its primary's log (prefix-hash mismatch); it must be rebuilt.
	Diverged bool `json:"diverged,omitempty"`
	// Unpinned reports a replica whose log was never pinned to its
	// primary's: POST /v1/promote refuses it, and failover passes it over.
	Unpinned bool `json:"unpinned,omitempty"`
}

// PromoteResponse acknowledges POST /v1/promote: the node stopped
// replicating at StreamPosition and now acks writes of its own, under
// Epoch (strictly above every epoch the node had seen).
type PromoteResponse struct {
	Promoted       bool   `json:"promoted"`
	StreamPosition uint64 `json:"stream_position"`
	Epoch          uint64 `json:"epoch,omitempty"`
}

// DemoteResponse acknowledges POST /v1/demote: the node is fenced — it
// keeps serving reads but rejects mutations with "stale_primary" until
// re-promoted via POST /v1/promote.
type DemoteResponse struct {
	Demoted bool   `json:"demoted"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	Role          string  `json:"role,omitempty"`
	Backend       string  `json:"backend"`
	InFlight      int64   `json:"in_flight"`
	Queued        int64   `json:"queued"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Version       string  `json:"version,omitempty"`
	Commit        string  `json:"commit,omitempty"`
	// Epoch is the node's primary epoch (0 when the node has none — an
	// in-memory store that never replicated).
	Epoch uint64 `json:"epoch,omitempty"`
	// Fenced reports a superseded primary; see ReadyResponse.Fenced.
	Fenced bool `json:"fenced,omitempty"`
	// Recovery reports what WAL recovery restored at startup; nil when
	// the database is not WAL-backed.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// RecoveryInfo is the wire form of wal.RecoveryStats.
type RecoveryInfo struct {
	CheckpointLoaded bool  `json:"checkpoint_loaded"`
	Segments         int   `json:"segments"`
	RecordsApplied   int   `json:"records_applied"`
	RecordsSkipped   int   `json:"records_skipped"`
	TailTruncated    bool  `json:"tail_truncated"`
	DroppedBytes     int64 `json:"dropped_bytes"`
	StaleTempRemoved bool  `json:"stale_temp_removed"`
}

// TraceSummary is one retained request trace as listed by GET
// /debug/traces (newest first).
type TraceSummary struct {
	TraceID       string    `json:"trace_id"`
	Start         time.Time `json:"start"`
	Method        string    `json:"method"`
	Path          string    `json:"path"`
	Statement     string    `json:"statement,omitempty"`
	StatementHash string    `json:"statement_hash,omitempty"`
	Digest        string    `json:"digest,omitempty"`
	Status        int       `json:"status"`
	Outcome       string    `json:"outcome"`
	DurationMS    float64   `json:"duration_ms"`
	EdgesScanned  int       `json:"edges_scanned,omitempty"`
	Error         string    `json:"error,omitempty"`
}

// TraceListResponse is the body of GET /debug/traces.
type TraceListResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// TraceDetail is the body of GET /debug/traces/{id}: the summary plus
// the request's span tree, both structured (Spans) and rendered as an
// indented text block (Rendered).
type TraceDetail struct {
	TraceSummary
	Spans    *SpanNode `json:"spans,omitempty"`
	Rendered string    `json:"rendered,omitempty"`
}

// SpanNode is the wire form of one obs.Span: a phase or operator of the
// request with its accumulated measurements and nested children.
type SpanNode struct {
	Name       string           `json:"name"`
	Detail     string           `json:"detail,omitempty"`
	DurationMS float64          `json:"duration_ms"`
	RowsIn     int64            `json:"rows_in,omitempty"`
	RowsOut    int64            `json:"rows_out,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanNode      `json:"children,omitempty"`
}

// StatementStatsResponse is the body of GET /v1/stats/statements: the
// per-digest workload table, ordered by the requested sort.
type StatementStatsResponse struct {
	// Sort echoes the applied order: "total_time" (default), "calls", or
	// "mean_time".
	Sort string `json:"sort"`
	// Statements holds one aggregate row per tracked digest, descending
	// by Sort; see stats.StatementStats for the row shape.
	Statements []stats.StatementStats `json:"statements"`
	// Other aggregates every digest evicted to cap cardinality; present
	// only once at least one eviction happened.
	Other *stats.StatementStats `json:"other,omitempty"`
	// Tracked is the number of digests currently held (before the limit
	// truncation); Evicted counts digests folded into Other since the
	// last reset.
	Tracked int   `json:"tracked"`
	Evicted int64 `json:"evicted"`
}

// StatsResetResponse acknowledges POST /v1/stats/reset.
type StatsResetResponse struct {
	OK bool `json:"ok"`
}

// ClusterNode is one node's entry in the GET /debug/cluster map: how the
// probing node reached it and, when reachable, its /readyz verdict —
// role, epoch, applied index, and lag in one place.
type ClusterNode struct {
	URL string `json:"url"`
	// Self marks the node serving this response (probed in-process, not
	// over HTTP).
	Self bool `json:"self,omitempty"`
	// Reachable reports whether the probe produced a readiness verdict;
	// false means Error explains the failure and Ready is nil.
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
	// Ready is the node's /readyz body. A node can be reachable yet not
	// ready (syncing, lagging, fenced, diverged) — Status says which.
	Ready *ReadyResponse `json:"ready,omitempty"`
}

// ClusterResponse is the body of GET /debug/cluster: every configured
// node keyed by its peer URL ("self" for the serving node).
type ClusterResponse struct {
	Nodes map[string]ClusterNode `json:"nodes"`
}

// ErrorBody is the JSON error envelope every non-2xx answer carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the typed error: Code is a stable machine-readable
// string ("parse_error", "overloaded", "deadline", "canceled", "limit",
// "unprepared", "internal"), Message the human one. TraceID links the
// failure to its server-side trace — quote it when reporting a problem.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}
