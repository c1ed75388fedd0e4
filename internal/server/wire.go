package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/graph"
	"repro/internal/obs"
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

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Query is the NPQL statement text.
	Query string `json:"query"`
	// At, when non-empty (a temporal.Parse spelling), runs the query against
	// the snapshot at that time — shorthand for an AT clause, rejected if
	// the statement already carries one.
	At string `json:"at,omitempty"`
	// Explain selects plan-only or traced execution; see ExplainMode.
	Explain ExplainMode `json:"explain,omitempty"`
	// TimeoutMS bounds the query's wall clock, like Limits.TimeoutMS
	// (the tighter of the two applies), so the query aborts
	// cooperatively server-side.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Limits are per-request resource guardrails. They only tighten the
	// database's own; nil leaves those alone.
	Limits *Limits `json:"limits,omitempty"`
	// MinTimestamp (any temporal.Parse spelling) demands the answer
	// reflect every mutation at or before it. On a primary it is free;
	// on a replica the request waits (bounded) for replication to catch
	// up, failing with the typed "replica_lagging" error if it cannot.
	MinTimestamp string `json:"min_timestamp,omitempty"`
}

// Interval is the wire form of temporal.Interval. A nil End means the
// interval is still current (the store's Forever sentinel).
type Interval struct {
	Start time.Time  `json:"start"`
	End   *time.Time `json:"end,omitempty"`
}

// intervalsOut renders s with at rendering each bound: temporal.Time, or
// an aggregate's AggValue.Bound. An end that renders as Forever's time
// is left nil.
func intervalsOut(s temporal.Set, at func(int64) time.Time) []Interval {
	if len(s) == 0 {
		return nil
	}
	out := make([]Interval, len(s))
	for i, iv := range s {
		out[i] = Interval{Start: at(iv.Start)}
		if end := at(iv.End); temporal.Nanos(end) != temporal.Forever {
			out[i].End = new(time.Time)
			*out[i].End = end
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
			end = temporal.Nanos(*iv.End)
		}
		out[i] = temporal.Interval{Start: temporal.Nanos(iv.Start), End: end}
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

// Value is one projected cell: at most one of Pathway or Scalar is set,
// and neither when the projected value is absent.
type Value struct {
	Pathway *Pathway `json:"pathway,omitempty"`
	Scalar  *Scalar  `json:"scalar,omitempty"`
}

// Scalar is a projected scalar cell: a string, bool, number, list or
// map. It encodes as its bare JSON value. It decodes the way a
// /v1/ingest body does, every number through Number, so an integer
// comes back as an exact int64 — and so does a float field whose value
// is integral, exactly as the same literal ingests.
type Scalar struct{ V any }

// MarshalJSON writes the bare value.
func (s Scalar) MarshalJSON() ([]byte, error) { return json.Marshal(s.V) }

// UnmarshalJSON reads a bare value, its numbers by Number. A string
// without escapes, the common cell, is taken without a decoder.
func (s *Scalar) UnmarshalJSON(b []byte) error {
	switch {
	case b[0] == '"' && bytes.IndexByte(b, '\\') < 0 && utf8.Valid(b):
		s.V = string(b[1 : len(b)-1])
		return nil
	case b[0] == '-' || '0' <= b[0] && b[0] <= '9':
		v, err := Number(string(b))
		s.V = v
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return err
	}
	var err error
	s.V, err = numbers(v)
	return err
}

// Number is the one rule for a JSON number arriving at either edge — a
// field value in a /v1/ingest body or a scalar cell of an answer. An
// integer literal in the int64 range becomes an int64, exact past 2^53;
// any other number becomes a float64; a literal that no float64 holds
// is an error.
func Number(lit string) (any, error) {
	if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
		return n, nil
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return nil, fmt.Errorf("number %s does not fit a float64", lit)
	}
	return f, nil
}

// numbers replaces every json.Number in v, through lists and maps, with
// its Number value.
func numbers(v any) (any, error) {
	var err error
	switch x := v.(type) {
	case json.Number:
		return Number(string(x))
	case []any:
		for i := range x {
			if x[i], err = numbers(x[i]); err != nil {
				return nil, err
			}
		}
	case map[string]any:
		for k, e := range x {
			if x[k], err = numbers(e); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// fieldNumbers replaces every json.Number in f's values with its Number
// value.
func fieldNumbers(f graph.Fields) error {
	for k, v := range f {
		var err error
		if f[k], err = numbers(v); err != nil {
			return err
		}
	}
	return nil
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

// QueryResponse is the body answered by /v1/query.
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
	// GET /v1/stats/statements and the per-digest /metrics series, and
	// stamped on the request's retained trace.
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

// ContentTypeWAL is the Content-Type of the binary /v1/ingest body: one
// WAL record group, as wal.AppendGroup writes it — a CRC-checked frame
// per op, every frame but the last carrying the continuation mark, no
// transaction time, and no UID on an insert. The Go client sends its
// batches in this form and the server decodes them with the log's own
// decoder; every other Content-Type is read as an IngestRequest in JSON.
const ContentTypeWAL = "application/x-nepal-wal"

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

// ingestOpNames are the wire's op names, indexed by the store's op.
var ingestOpNames = [...]string{
	graph.OpInsertNode: "insert-node",
	graph.OpInsertEdge: "insert-edge",
	graph.OpUpdate:     "update",
	graph.OpDelete:     "delete",
}

// ingestOpName is the wire name of a store op; op is one of the four.
func ingestOpName(op graph.MutationOp) string { return ingestOpNames[op] }

// Mutation turns the wire op into the store's mutation record, the one
// both body forms of /v1/ingest hand to Store.Mutate. An insert's UID is
// left zero: the store assigns it. It fails only on an op name that is
// not one of the four.
func (op IngestOp) Mutation() (graph.Mutation, error) {
	for kind, name := range ingestOpNames {
		if name == "" || name != op.Op {
			continue
		}
		m := graph.Mutation{Op: graph.MutationOp(kind), Class: op.Class,
			Src: graph.UID(op.Src), Dst: graph.UID(op.Dst), Fields: graph.Fields(op.Fields)}
		if m.Op == graph.OpUpdate || m.Op == graph.OpDelete {
			m.UID = graph.UID(op.UID)
		}
		return m, nil
	}
	return graph.Mutation{}, fmt.Errorf("unknown op %q (use insert-node, insert-edge, update, delete)", op.Op)
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
	TraceID      string    `json:"trace_id"`
	Start        time.Time `json:"start"`
	Method       string    `json:"method"`
	Path         string    `json:"path"`
	Statement    string    `json:"statement,omitempty"`
	Digest       string    `json:"digest,omitempty"`
	Status       int       `json:"status"`
	Outcome      string    `json:"outcome"`
	DurationMS   float64   `json:"duration_ms"`
	EdgesScanned int       `json:"edges_scanned,omitempty"`
	Error        string    `json:"error,omitempty"`
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

// ErrorBody and ErrorDetail are the JSON error envelope every non-2xx
// answer carries, defined where it is written (obs.WriteError).
type (
	ErrorBody   = obs.ErrorBody
	ErrorDetail = obs.ErrorDetail
)
