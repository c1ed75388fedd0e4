// Package client is the Go client for Nepal's HTTP/JSON query server
// (internal/server): typed request/response structs shared with the
// server so the wire contract cannot drift, connection reuse through one
// http.Client, context propagation onto the server's cooperative
// cancellation, prepared statements, and result decoding back into
// plan.Pathway values.
//
// Errors are typed: server-side rejections surface as *APIError (match
// the overload/deadline/limit classes with errors.Is against
// ErrOverloaded, ErrDeadline, ErrLimit), while network
// failures — connection refused, connections dropped mid-response —
// surface as *TransportError, whose Retryable() says whether another
// endpoint is worth trying.
package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// Sentinel errors for errors.Is against *APIError.
var (
	// ErrOverloaded matches 429: the server's admission queue is full.
	// Back off and retry.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrDeadline matches 504: the query hit its deadline server-side.
	ErrDeadline = errors.New("client: query deadline exceeded")
	// ErrLimit matches 422: the query crossed a resource limit.
	ErrLimit = errors.New("client: query resource limit exceeded")
	// ErrReplicaLagging matches 503 "replica_lagging": the replica could
	// not reach the request's min_timestamp in time. Retry against
	// another replica or the primary.
	ErrReplicaLagging = errors.New("client: replica lagging behind requested timestamp")
	// ErrReadOnly matches 403 "read_only": the node is a read replica;
	// send writes to the primary.
	ErrReadOnly = errors.New("client: node is a read-only replica")
	// ErrStalePrimary matches 403 "stale_primary": the node used to be
	// the primary but was superseded by a higher-epoch promotion (or
	// demoted by an operator). Rediscover the current primary; the write
	// was rejected before execution, so retrying elsewhere is safe.
	ErrStalePrimary = errors.New("client: primary is stale (superseded by a newer epoch)")
	// ErrStaleRead is a client-side rejection: the answer was served
	// under a lower primary epoch than the cluster has already observed,
	// so accepting it could interleave pre- and post-failover histories.
	// Retryable against another endpoint.
	ErrStaleRead = errors.New("client: answer served under a superseded epoch")
	// ErrWatchCompacted matches 410 "watch_compacted": the watch resume
	// token predates the oldest event the node retains. Re-sync derived
	// state, then resume from WatchCompactedError.Base.
	ErrWatchCompacted = errors.New("client: watch position compacted away")
	// ErrWatchStaleEpoch matches 409 "watch_stale_epoch": the node serves
	// an older epoch than this subscriber has already witnessed — it is a
	// superseded primary. Resubscribe on the current one.
	ErrWatchStaleEpoch = errors.New("client: watch endpoint serves a superseded epoch")
)

// APIError is a structured server rejection: the HTTP status plus the
// stable machine-readable code from the error envelope. TraceID, when
// non-empty, names the server-side trace of the failed request — quote
// it in bug reports and grep for it in the server's access log or fetch
// it from /debug/traces/{id}.
type APIError struct {
	Status  int
	Code    string
	Message string
	TraceID string
	// RetryAfter is the server's Retry-After hint (zero when absent):
	// how long to wait before retrying this endpoint. Sent with 429
	// "overloaded" and 503 "replica_lagging".
	RetryAfter time.Duration

	// header is the response's header, for the callers that read more of
	// it (WatchPoll's X-Nepal-Wal-Base).
	header http.Header
}

func (e *APIError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("server: %s (%s, http %d, trace %s)", e.Message, e.Code, e.Status, e.TraceID)
	}
	return fmt.Sprintf("server: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// Is maps the typed codes onto the package sentinels.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Code == "overloaded"
	case ErrDeadline:
		return e.Code == "deadline"
	case ErrLimit:
		return e.Code == "limit"
	case ErrReplicaLagging:
		return e.Code == "replica_lagging"
	case ErrReadOnly:
		return e.Code == "read_only"
	case ErrStalePrimary:
		return e.Code == "stale_primary"
	case ErrWatchCompacted:
		return e.Code == "watch_compacted"
	case ErrWatchStaleEpoch:
		return e.Code == "watch_stale_epoch"
	}
	return false
}

// TransportError is a network-level failure: the request may or may not
// have reached the server (send errors) or the response was cut off
// mid-body (a dropped connection).
type TransportError struct {
	Op  string // "send" or "decode"
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("client: transport failure during %s: %v", e.Op, e.Err)
}
func (e *TransportError) Unwrap() error { return e.Err }

// Retryable classifies the failure for failover: connection resets,
// refusals, timeouts, and responses cut off mid-body are worth retrying
// against another endpoint; TLS handshake/verification and HTTP protocol
// violations are configuration bugs that every endpoint of a
// misconfigured client will reproduce — retrying those hot-loops a
// failure that cannot heal.
func (e *TransportError) Retryable() bool {
	// TLS: a bad certificate or a peer that is not speaking TLS will not
	// get better on retry.
	var certErr *tls.CertificateVerificationError
	var recordErr tls.RecordHeaderError
	var hostErr x509.HostnameError
	var unkErr x509.UnknownAuthorityError
	if errors.As(e.Err, &certErr) || errors.As(e.Err, &recordErr) ||
		errors.As(e.Err, &hostErr) || errors.As(e.Err, &unkErr) {
		return false
	}
	// Malformed URLs and unsupported schemes are caller bugs.
	if errors.Is(e.Err, http.ErrSchemeMismatch) {
		return false
	}
	// The rest of the transport failure space — refused, reset, timeout,
	// dropped mid-response (unexpected EOF / truncated JSON) — is the
	// transient kind failover exists for.
	return true
}

// Client talks to one Nepal server. It is safe for concurrent use; the
// underlying http.Client pools and reuses connections across requests
// and goroutines.
type Client struct {
	base string
	hc   *http.Client

	// provideEpoch/observeEpoch are the failover-epoch exchange hooks;
	// see WithEpochExchange. Either may be nil.
	provideEpoch func() uint64
	observeEpoch func(uint64)
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the transport (custom timeouts, test
// instrumentation). The default client has a 30s overall timeout.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithEpochExchange wires the client into the failover-epoch exchange.
// provide (may be nil) returns the highest primary epoch the caller has
// seen; when positive it is stamped as X-Nepal-Epoch on every POST, so
// a superseded primary fences itself the moment a failover-aware client
// writes to it. observe (may be nil) is called with the epoch of every
// response that carries one, letting the caller track the cluster-wide
// maximum. Cluster uses both to keep pre- and post-failover histories
// from interleaving.
func WithEpochExchange(provide func() uint64, observe func(uint64)) Option {
	return func(c *Client) { c.provideEpoch, c.observeEpoch = provide, observe }
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:7474").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Pathway is a decoded result pathway: the engine's element-UID form
// plus the server-side rendering.
type Pathway struct {
	plan.Pathway
	Rendered string
}

// Row is one decoded result tuple: Values holds *Pathway for pathway
// projections and JSON scalars (string, float64, bool) otherwise.
type Row struct {
	Values  []any
	Coexist temporal.Set
}

// Result is a decoded query answer.
type Result struct {
	Columns []string
	Rows    []Row
	Agg     *server.Agg
	Explain string
	Metrics server.Metrics
	// Cached reports the server answered from its compiled-plan cache.
	Cached bool
	// ElapsedMS is the server-measured execution time.
	ElapsedMS float64
	// TraceID is the request's end-to-end trace ID; while the server
	// retains the trace, Trace(ctx, TraceID) fetches the full span tree.
	TraceID string
	// AppliedThrough, when the answer came from a replica, is its
	// replication watermark: every primary mutation at or before this
	// timestamp is reflected. Empty on primary answers.
	AppliedThrough string
	// Epoch is the primary epoch the answering node served under (0 when
	// it has none). A lower value than the highest epoch the caller has
	// seen means the answer predates the latest failover.
	Epoch uint64
	// Digest is the statement's literal-masked fingerprint — the key into
	// StatementStats rows and the server's per-digest /metrics series.
	Digest string
}

// QueryOptions carries the optional per-request fields of /v1/query.
type QueryOptions struct {
	// At runs the query at a point in time (a temporal.Parse spelling).
	At string
	// TimeoutMS bounds the server-side execution.
	TimeoutMS int64
	// Limits are per-request resource guardrails.
	Limits *server.Limits
	// MinTimestamp (any temporal.Parse spelling) demands the answer
	// reflect every mutation at or before it — the bounded-staleness
	// contract when reading from a replica. Lagging replicas wait, then
	// fail with ErrReplicaLagging.
	MinTimestamp string
}

// Query executes one NPQL statement.
func (c *Client) Query(ctx context.Context, query string, o *QueryOptions) (*Result, error) {
	req := server.QueryRequest{Query: query}
	if o != nil {
		req.At, req.TimeoutMS, req.Limits = o.At, o.TimeoutMS, o.Limits
		req.MinTimestamp = o.MinTimestamp
	}
	var resp server.QueryResponse
	if err := c.post(ctx, "/v1/query", req, &resp); err != nil {
		return nil, err
	}
	return decodeResult(&resp), nil
}

// Explain returns the statement's textual plan without executing it.
func (c *Client) Explain(ctx context.Context, query string) (string, error) {
	var resp server.QueryResponse
	err := c.post(ctx, "/v1/query", server.QueryRequest{Query: query, Explain: server.ExplainPlan}, &resp)
	if err != nil {
		return "", err
	}
	return resp.Explain, nil
}

// ExplainAnalyze executes the statement with operator tracing and
// returns the annotated plan rendering alongside the decoded result.
func (c *Client) ExplainAnalyze(ctx context.Context, query string) (string, *Result, error) {
	var resp server.QueryResponse
	err := c.post(ctx, "/v1/query", server.QueryRequest{Query: query, Explain: server.ExplainAnalyze}, &resp)
	if err != nil {
		return "", nil, err
	}
	return resp.Explain, decodeResult(&resp), nil
}

// Stmt is a prepared statement: its text, checked and compiled into the
// server's statement table by Prepare. The text is all a Stmt sends, so
// it executes on any server — after an eviction, a view definition, a
// restart or a failover — in one request, compiling there if it must.
type Stmt struct {
	c      *Client
	query  string
	digest string
}

// Prepare compiles the statement server-side, failing as a query of it
// would, and returns it with its digest.
func (c *Client) Prepare(ctx context.Context, query string) (*Stmt, error) {
	var resp server.QueryResponse
	if err := c.post(ctx, "/v1/query", server.QueryRequest{Query: query, Explain: server.ExplainPlan}, &resp); err != nil {
		return nil, err
	}
	return &Stmt{c: c, query: query, digest: resp.Digest}, nil
}

// Text returns the statement's query text.
func (s *Stmt) Text() string { return s.query }

// Digest returns the statement's literal-masked fingerprint: all
// literal-only variants of this statement aggregate under it in the
// server's statistics surfaces.
func (s *Stmt) Digest() string { return s.digest }

// Exec executes the prepared statement, as Client.Query would.
func (s *Stmt) Exec(ctx context.Context, o *QueryOptions) (*Result, error) {
	return s.c.Query(ctx, s.query, o)
}

// sleepCtx sleeps d or until ctx is done (returning its error).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ingest applies a batch of mutations in order, atomically. A nil error
// means every op is applied — durably, when the server's store is
// WAL-backed. A rejection from the server means none is; a transport
// error leaves it unknown. The batch travels as one WAL record group
// (server.ContentTypeWAL), written by the log's own encoder, so an op it
// cannot carry — an unknown op name, a field value the codec has no tag
// for — fails here, naming the op, before anything is sent.
func (c *Client) Ingest(ctx context.Context, ops []server.IngestOp) (*server.IngestResponse, error) {
	payload, err := encodeIngest(ops)
	if err != nil {
		return nil, err
	}
	var resp server.IngestResponse
	if err := c.send(ctx, "/v1/ingest", server.ContentTypeWAL, payload, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ingestScratch is what encoding one batch reuses: the mutation records,
// the pointers wal.AppendGroup takes, and the frame buffer.
type ingestScratch struct {
	slab []graph.Mutation
	ms   []*graph.Mutation
	buf  []byte
}

var ingestPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// encodeIngest frames ops as one record group and returns an exact-size
// copy of it: the request body may outlive the call, the scratch does
// not.
func encodeIngest(ops []server.IngestOp) ([]byte, error) {
	sc := ingestPool.Get().(*ingestScratch)
	defer func() {
		clear(sc.slab) // drop the callers' field maps
		sc.slab, sc.ms = sc.slab[:0], sc.ms[:0]
		if cap(sc.buf) <= maxPooledBody {
			ingestPool.Put(sc)
		}
	}()
	for i, op := range ops {
		m, err := op.Mutation()
		if err != nil {
			return nil, ingestOpErr(i, op, err)
		}
		sc.slab = append(sc.slab, m)
	}
	for i := range sc.slab {
		sc.ms = append(sc.ms, &sc.slab[i])
	}
	buf, err := wal.AppendGroup(sc.buf[:0], sc.ms)
	sc.buf = buf
	if err != nil {
		be := err.(*graph.BatchError)
		return nil, ingestOpErr(be.Index, ops[be.Index], be.Err)
	}
	return bytes.Clone(buf), nil
}

// ingestOpErr names the op a batch could not be framed for, as the
// server names the op that rejected one.
func ingestOpErr(i int, op server.IngestOp, err error) error {
	return fmt.Errorf("client: op %d (%s): %v; nothing was sent", i, op.Op, err)
}

// Checkpoint snapshots the server's store and contracts its WAL.
func (c *Client) Checkpoint(ctx context.Context) error {
	var resp server.CheckpointResponse
	return c.post(ctx, "/v1/checkpoint", struct{}{}, &resp)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*server.HealthResponse, error) {
	var resp server.HealthResponse
	if err := c.get(ctx, "/healthz", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready fetches /readyz. A not-ready node (503 — still syncing or
// lagging past its tolerance) returns ready=false with the decoded
// status, not an error; errors are transport-level only.
func (c *Client) Ready(ctx context.Context) (ready bool, status *server.ReadyResponse, err error) {
	var resp server.ReadyResponse
	err = c.get(ctx, "/readyz", &resp)
	if err == nil {
		return true, &resp, nil
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable {
		// The 503 body is the same JSON status document.
		if jerr := json.Unmarshal([]byte(ae.Message), &resp); jerr == nil && resp.Status != "" {
			return false, &resp, nil
		}
	}
	return false, nil, err
}

// Promote asks a replica to become the primary (POST /v1/promote):
// replication stops, replicated state is made durable, and the node
// starts acking writes under a freshly minted epoch. Idempotent
// server-side; on a fenced primary it is the re-promotion path. A client
// in the epoch exchange stamps the highest epoch it has seen on the
// request, and the node mints above it.
func (c *Client) Promote(ctx context.Context) (*server.PromoteResponse, error) {
	var resp server.PromoteResponse
	if err := c.post(ctx, "/v1/promote", struct{}{}, &resp); err != nil {
		return nil, err
	}
	if c.observeEpoch != nil && resp.Epoch > 0 {
		c.observeEpoch(resp.Epoch)
	}
	return &resp, nil
}

// Demote fences a primary (POST /v1/demote): it keeps serving reads but
// rejects mutations with ErrStalePrimary until re-promoted — run it on
// an old primary before rejoining it to a cluster that failed over.
func (c *Client) Demote(ctx context.Context) (*server.DemoteResponse, error) {
	var resp server.DemoteResponse
	if err := c.post(ctx, "/v1/demote", struct{}{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Base returns the endpoint URL this client talks to.
func (c *Client) Base() string { return c.base }

// Metrics fetches /metrics in the Prometheus text exposition format.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	c.injectTrace(ctx, req)
	hresp, err := c.hc.Do(req)
	if err != nil {
		return "", &TransportError{Op: "send", Err: err}
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(hresp.Body)
	if err != nil {
		return "", &TransportError{Op: "decode", Err: err}
	}
	if hresp.StatusCode != http.StatusOK {
		return "", &APIError{Status: hresp.StatusCode, Code: "internal", Message: string(body)}
	}
	return string(body), nil
}

// StatementStats fetches GET /v1/stats/statements: the server's
// per-digest workload table, ordered by sortBy ("total_time" — the
// default when empty — "calls", or "mean_time") and truncated to limit
// rows when limit > 0.
func (c *Client) StatementStats(ctx context.Context, sortBy string, limit int) (*server.StatementStatsResponse, error) {
	path := "/v1/stats/statements"
	q := make([]string, 0, 2)
	if sortBy != "" {
		q = append(q, "sort="+sortBy)
	}
	if limit > 0 {
		q = append(q, "limit="+strconv.Itoa(limit))
	}
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	var resp server.StatementStatsResponse
	if err := c.get(ctx, path, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ResetStats discards the server's per-statement aggregates (POST
// /v1/stats/reset) — bracket an experiment with it.
func (c *Client) ResetStats(ctx context.Context) error {
	var resp server.StatsResetResponse
	return c.post(ctx, "/v1/stats/reset", struct{}{}, &resp)
}

// ClusterView fetches GET /debug/cluster from this node: its own
// readiness plus every configured peer's, one map of role, epoch,
// applied index, and lag per node.
func (c *Client) ClusterView(ctx context.Context) (*server.ClusterResponse, error) {
	var resp server.ClusterResponse
	if err := c.get(ctx, "/debug/cluster", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Traces lists the server's retained request traces, newest first.
func (c *Client) Traces(ctx context.Context) (*server.TraceListResponse, error) {
	var resp server.TraceListResponse
	if err := c.get(ctx, "/debug/traces", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Trace fetches one retained trace's full span tree by trace ID (as
// returned in Result.TraceID and APIError.TraceID).
func (c *Client) Trace(ctx context.Context, id string) (*server.TraceDetail, error) {
	var resp server.TraceDetail
	if err := c.get(ctx, "/debug/traces/"+id, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ---- transport ----

// injectTrace forwards a caller-supplied trace ID onto the wire: when
// ctx carries one (obs.WithTraceID), the request's X-Nepal-Trace header
// makes the server join this hop to the caller's existing trace instead
// of minting a fresh ID. Without one, the header stays unset and the
// server generates the ID — the common case costs one map-miss lookup.
func (c *Client) injectTrace(ctx context.Context, req *http.Request) {
	if id := obs.TraceIDFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
}

func (c *Client) post(ctx context.Context, path string, body, into any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.send(ctx, path, "application/json", payload, into)
}

// send POSTs payload, of the given Content-Type, and decodes the answer
// into into.
func (c *Client) send(ctx context.Context, path, contentType string, payload []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	c.injectTrace(ctx, req)
	// Stamp the highest epoch this caller has seen: a superseded primary
	// receiving it fences itself instead of acking the write.
	if c.provideEpoch != nil {
		if e := c.provideEpoch(); e > 0 {
			req.Header.Set(server.HeaderEpoch, strconv.FormatUint(e, 10))
		}
	}
	return c.do(req, into)
}

func (c *Client) get(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	c.injectTrace(ctx, req)
	return c.do(req, into)
}

func (c *Client) do(req *http.Request, into any) error {
	hresp, err := c.hc.Do(req)
	if err != nil {
		// The caller's own context expiring is a deliberate abort, not a
		// transient transport fault — surface it as-is.
		if ctxErr := req.Context().Err(); ctxErr != nil {
			return ctxErr
		}
		return &TransportError{Op: "send", Err: err}
	}
	defer hresp.Body.Close()
	// Learn the answering node's epoch whatever the outcome — error
	// responses from a newer-epoch primary still advance the maximum.
	if c.observeEpoch != nil {
		if e, perr := strconv.ParseUint(hresp.Header.Get(server.HeaderEpoch), 10, 64); perr == nil && e > 0 {
			c.observeEpoch(e)
		}
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	if _, err := buf.ReadFrom(hresp.Body); err != nil {
		// The connection died mid-response: the body is incomplete.
		return &TransportError{Op: "decode", Err: err}
	}
	raw := buf.Bytes()
	if hresp.StatusCode < 200 || hresp.StatusCode > 299 {
		return decodeAPIError(hresp, raw)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		// 200 with an undecodable body: almost always a connection cut
		// mid-response by a proxy or a dying server.
		return &TransportError{Op: "decode", Err: err}
	}
	return nil
}

// bodyPool recycles the buffers do reads response bodies into. Nothing
// decoded from a body aliases it — encoding/json copies every string and
// the error paths copy the message — so a buffer is reusable as soon as
// do returns.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers kept: a rare large answer's buffer is
// dropped rather than pinned in the pool.
const maxPooledBody = 64 << 10

func putBody(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBody {
		return
	}
	buf.Reset()
	bodyPool.Put(buf)
}

// decodeAPIError turns a non-2xx response into *APIError.
func decodeAPIError(hresp *http.Response, raw []byte) *APIError {
	traceID := hresp.Header.Get(obs.TraceHeader)
	retryAfter := parseRetryAfter(hresp.Header.Get("Retry-After"))
	var eb server.ErrorBody
	if jerr := json.Unmarshal(raw, &eb); jerr == nil && eb.Error.Code != "" {
		if eb.Error.TraceID != "" {
			traceID = eb.Error.TraceID
		}
		return &APIError{Status: hresp.StatusCode, Code: eb.Error.Code,
			Message: eb.Error.Message, TraceID: traceID, RetryAfter: retryAfter, header: hresp.Header}
	}
	return &APIError{Status: hresp.StatusCode, Code: "internal",
		Message: strings.TrimSpace(string(raw)), TraceID: traceID, RetryAfter: retryAfter, header: hresp.Header}
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form nepal servers send).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// ---- decoding ----

func decodeResult(resp *server.QueryResponse) *Result {
	out := &Result{
		Columns:        resp.Columns,
		Agg:            resp.Agg,
		Explain:        resp.Explain,
		Metrics:        resp.Metrics,
		Cached:         resp.Cached,
		ElapsedMS:      resp.ElapsedMS,
		TraceID:        resp.TraceID,
		AppliedThrough: resp.AppliedThrough,
		Epoch:          resp.Epoch,
		Digest:         resp.Digest,
	}
	for _, row := range resp.Rows {
		r := Row{Values: make([]any, len(row.Values)), Coexist: server.IntervalsIn(row.Coexist)}
		for i, v := range row.Values {
			switch {
			case v.Pathway != nil:
				r.Values[i] = &Pathway{Pathway: v.Pathway.Plan(), Rendered: v.Pathway.Rendered}
			case v.Scalar != nil:
				r.Values[i] = v.Scalar.V
			}
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}
