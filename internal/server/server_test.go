package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/server"
)

const (
	retrieveQ = "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"
	selectQ   = "Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)"
)

// newDemoDB opens a demo-loaded DB; extra core options apply first.
func newDemoDB(t testing.TB, opts ...core.Option) *core.DB {
	t.Helper()
	db, err := core.Open(netmodel.MustSchema(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netmodel.BuildDemo(db.Store(), 1000); err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestServer stands a server up behind httptest and returns the
// matching client.
func newTestServer(t testing.TB, db *core.DB, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL)
}

func TestQueryRoundTrip(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()

	res, err := c.Query(ctx, retrieveQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("retrieve returned no rows")
	}
	p, ok := res.Rows[0].Values[0].(*client.Pathway)
	if !ok {
		t.Fatalf("value is %T, want *client.Pathway", res.Rows[0].Values[0])
	}
	if len(p.Elems) == 0 || len(p.Elems)%2 == 0 {
		t.Errorf("pathway has %d elements, want odd > 0", len(p.Elems))
	}
	if p.Rendered == "" {
		t.Error("pathway rendering missing")
	}
	if res.Metrics.EdgesScanned == 0 {
		t.Error("metrics did not cross the wire")
	}

	res, err = c.Query(ctx, selectQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("select returned no rows")
	}
	if _, ok := res.Rows[0].Values[0].(string); !ok {
		t.Errorf("scalar projection is %T, want string", res.Rows[0].Values[0])
	}
}

// TestQueryResultsMatchLocal pins wire fidelity: the same query answered
// locally and over the network binds the same pathways.
func TestQueryResultsMatchLocal(t *testing.T) {
	db := newDemoDB(t)
	_, c := newTestServer(t, db, server.Config{})

	local, err := db.Query(retrieveQ)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Query(context.Background(), retrieveQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Rows) != len(local.Rows) {
		t.Fatalf("remote %d rows, local %d", len(remote.Rows), len(local.Rows))
	}
	localKeys := map[string]bool{}
	for _, row := range local.Rows {
		localKeys[row.Values()[0].(*plan.Pathway).Key()] = true
	}
	for _, row := range remote.Rows {
		key := row.Values[0].(*client.Pathway).Pathway.Key()
		if !localKeys[key] {
			t.Errorf("remote pathway %s not in local result", key)
		}
	}

	// Scalar cells come back as the local answer holds them: an id past
	// 2^53, which a float64 rounds, stays exact.
	ctx := context.Background()
	if err := ingestHost(ctx, c, 9007199254740993); err != nil {
		t.Fatal(err)
	}
	const idQ = "Select source(H).id, source(H).name From PATHS H Where H MATCHES ComputeHost(id=9007199254740993)"
	local, err = db.Query(idQ)
	if err != nil {
		t.Fatal(err)
	}
	remote, err = c.Query(ctx, idQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Rows) != 1 || len(remote.Rows) != 1 {
		t.Fatalf("big-id rows: local %d, remote %d; want 1 each", len(local.Rows), len(remote.Rows))
	}
	if got, want := remote.Rows[0].Values, local.Rows[0].Values(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("remote scalars %v, local %v", got, want)
	}
	if id, ok := remote.Rows[0].Values[0].(int64); !ok || id != 9007199254740993 {
		t.Errorf("remote id = %v (%T), want the int64 9007199254740993", remote.Rows[0].Values[0], remote.Rows[0].Values[0])
	}
}

func TestQueryAtAndConflict(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	at := time.Now().UTC().Add(time.Minute).Format("2006-01-02 15:04:05")
	if _, err := c.Query(context.Background(), retrieveQ, &client.QueryOptions{At: at}); err != nil {
		t.Fatalf("at-query: %v", err)
	}
	_, err := c.Query(context.Background(), "AT '"+at+"' "+retrieveQ, &client.QueryOptions{At: at})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("double AT accepted: %v", err)
	}
}

func TestExplainModes(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()

	text, err := c.Explain(ctx, retrieveQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Select:") || !strings.Contains(text, "RPE:") {
		t.Errorf("explain text missing plan shape:\n%s", text)
	}

	text, res, err := c.ExplainAnalyze(ctx, retrieveQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "time=") || !strings.Contains(text, "-- variable P") {
		t.Errorf("explain-analyze text missing annotations:\n%s", text)
	}
	if len(res.Rows) == 0 {
		t.Error("explain-analyze did not also return rows")
	}
}

// TestExplainAnalyzeHonorsRequestLimits: EXPLAIN ANALYZE runs the
// request's own statement under the request's limits and deadline, like
// any other query — a max_paths the answer exceeds is a 422 "limit".
func TestExplainAnalyzeHonorsRequestLimits(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	body := `{"query":"` + selectQ + `","explain":"analyze","limits":{"max_paths":1}}`
	resp, err := http.Post(c.Base()+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "limit" {
		t.Fatalf("explain analyze over max_paths=1 = %d %+v; want 422 limit", resp.StatusCode, eb.Error)
	}
}

func TestTypedErrors(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()

	_, err := c.Query(ctx, "Retrieve garbage", nil)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != "parse_error" {
		t.Errorf("parse error: got %v", err)
	}

	_, err = c.Query(ctx, retrieveQ, &client.QueryOptions{Limits: &server.Limits{MaxPaths: 1}})
	if !errors.Is(err, client.ErrLimit) {
		t.Errorf("limit error: got %v", err)
	}
}

// TestRequestLimitsOnlyTighten: a request's limits can tighten the
// database's guardrails (core.WithLimits) but never loosen them — each
// field takes the smaller nonzero bound, so asking for more paths, edges
// or time than the database allows still aborts at the database's bound.
func TestRequestLimitsOnlyTighten(t *testing.T) {
	slow := core.WithAccessorWrapper(func(a plan.Accessor) plan.Accessor {
		return chaos.Wrap(a, chaos.WithLatency(5*time.Millisecond))
	})
	for _, tc := range []struct {
		name    string
		opts    []core.Option
		def     exec.Limits
		req     server.Limits
		wantErr error
	}{
		{"paths", nil, exec.Limits{MaxPaths: 1}, server.Limits{MaxPaths: 1_000_000}, client.ErrLimit},
		{"edges", nil, exec.Limits{MaxEdgesScanned: 1}, server.Limits{MaxEdgesScanned: 1_000_000}, client.ErrLimit},
		{"timeout", []core.Option{slow}, exec.Limits{MaxDuration: time.Millisecond}, server.Limits{TimeoutMS: 60_000}, client.ErrDeadline},
		{"tighten", nil, exec.Limits{MaxPaths: 1_000_000}, server.Limits{MaxPaths: 1}, client.ErrLimit},
		{"open default", nil, exec.Limits{}, server.Limits{MaxPaths: 1}, client.ErrLimit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newDemoDB(t, append(tc.opts, core.WithLimits(tc.def))...)
			_, c := newTestServer(t, db, server.Config{})
			_, err := c.Query(context.Background(), retrieveQ, &client.QueryOptions{Limits: &tc.req})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("default %+v, request %+v: got %v, want %v", tc.def, tc.req, err, tc.wantErr)
			}
		})
	}
}

// TestDBLimitsGovernServedQueries: with a zero server.Config, the
// database's own limits bound every query the server answers — plain,
// EXPLAIN ANALYZE and a prepared statement's execution alike.
func TestDBLimitsGovernServedQueries(t *testing.T) {
	db := newDemoDB(t, core.WithLimits(exec.Limits{MaxPaths: 1}))
	_, c := newTestServer(t, db, server.Config{})
	ctx := context.Background()
	if _, err := c.Query(ctx, retrieveQ, nil); !errors.Is(err, client.ErrLimit) {
		t.Errorf("query: got %v, want 422 limit", err)
	}
	if _, _, err := c.ExplainAnalyze(ctx, retrieveQ); !errors.Is(err, client.ErrLimit) {
		t.Errorf("explain analyze: got %v, want 422 limit", err)
	}
	stmt, err := c.Prepare(ctx, retrieveQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(ctx, nil); !errors.Is(err, client.ErrLimit) {
		t.Errorf("execute: got %v, want 422 limit", err)
	}
}

func TestDeadlineOverAPI(t *testing.T) {
	db := newDemoDB(t, core.WithAccessorWrapper(func(a plan.Accessor) plan.Accessor {
		return chaos.Wrap(a, chaos.WithLatency(5*time.Millisecond))
	}))
	_, c := newTestServer(t, db, server.Config{})
	_, err := c.Query(context.Background(), retrieveQ, &client.QueryOptions{TimeoutMS: 20})
	if !errors.Is(err, client.ErrDeadline) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestHugeTimeoutIsNoDeadline: a timeout_ms too large for a
// time.Duration, top-level or in limits, bounds nothing instead of
// wrapping into an instant 504; a small one still answers 504 deadline.
func TestHugeTimeoutIsNoDeadline(t *testing.T) {
	post := func(h http.Handler, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		return rec
	}
	h := server.New(newDemoDB(t), server.Config{}).Handler()
	for _, body := range []string{
		fmt.Sprintf(`{"query": %q, "timeout_ms": 76480200929599801}`, retrieveQ),
		fmt.Sprintf(`{"query": %q, "limits": {"timeout_ms": 76480200929599801}}`, retrieveQ),
		fmt.Sprintf(`{"query": %q, "timeout_ms": 9223372036854775807, "limits": {"timeout_ms": -9223372036854775808}}`, retrieveQ),
	} {
		if rec := post(h, body); rec.Code != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", body, rec.Code, rec.Body)
		}
	}

	slow := newDemoDB(t, core.WithAccessorWrapper(func(a plan.Accessor) plan.Accessor {
		return chaos.Wrap(a, chaos.WithLatency(5*time.Millisecond))
	}))
	rec := post(server.New(slow, server.Config{}).Handler(), fmt.Sprintf(`{"query": %q, "timeout_ms": 20}`, retrieveQ))
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"deadline"`) {
		t.Errorf("timeout_ms 20 over a slow store: %d %s, want 504 deadline", rec.Code, rec.Body)
	}
}

func TestPrepareExecuteAndCache(t *testing.T) {
	reg := obs.NewRegistry()
	db := newDemoDB(t)
	_, c := newTestServer(t, db, server.Config{Registry: reg})
	ctx := context.Background()

	stmt, err := c.Prepare(ctx, retrieveQ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := stmt.Exec(ctx, nil)
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if !res.Cached {
			t.Errorf("exec %d not served from plan cache", i)
		}
		if len(res.Rows) == 0 {
			t.Errorf("exec %d returned no rows", i)
		}
		if stmt.Digest() == "" || res.Digest != stmt.Digest() {
			t.Errorf("exec %d: digest %q, prepared %q", i, res.Digest, stmt.Digest())
		}
	}
	if hits := reg.Counter("server.plan_cache_hits").Value(); hits < 3 {
		t.Errorf("plan cache hits = %d, want >= 3", hits)
	}
	if n, _ := db.StatementTable(); n != 1 {
		t.Errorf("statement table holds %d shapes, want 1", n)
	}

	// Ad-hoc /v1/query reuses the same cached plan.
	res, err := c.Query(ctx, retrieveQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("ad-hoc query missed the plan cache despite a prepared statement")
	}
}

// TestStmtSurvivesServerSwap: a statement prepared on one server
// executes on a fresh server over a fresh database — a restart or
// failover — whose statement table has never seen its shape, and again
// after that server redefines a view, in one request each.
func TestStmtSurvivesServerSwap(t *testing.T) {
	first := server.New(newDemoDB(t), server.Config{})
	secondDB := newDemoDB(t)
	second := server.New(secondDB, server.Config{})
	var target atomic.Pointer[server.Server]
	target.Store(first)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		target.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()

	stmt, err := c.Prepare(ctx, retrieveQ)
	if err != nil {
		t.Fatal(err)
	}
	misses := second.Registry().Counter("server.plan_cache_misses")
	run := func(step string, wantMisses int64) {
		t.Helper()
		before := requests.Load()
		res, err := stmt.Exec(ctx, nil)
		if err != nil {
			t.Fatalf("exec %s: %v", step, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("exec %s returned no rows", step)
		}
		if n := requests.Load() - before; n != 1 {
			t.Errorf("exec %s took %d requests, want 1", step, n)
		}
		if n := misses.Value(); n != wantMisses {
			t.Errorf("exec %s: the fresh server counted %d statement-table misses, want %d", step, n, wantMisses)
		}
	}
	target.Store(second)
	run("after the swap", 1)
	// DefineView empties the statement table: one more compile.
	if err := secondDB.DefineView("Placements", "VM()->OnServer()->Host()"); err != nil {
		t.Fatal(err)
	}
	run("after DefineView", 2)
}

// TestStmtExecAt: Stmt.Exec honours QueryOptions.At as Client.Query
// does, answering from the snapshot at that time.
func TestStmtExecAt(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()
	stmt, err := c.Prepare(ctx, "Select source(P).name From PATHS P Where P MATCHES ComputeHost(rack='r-at')")
	if err != nil {
		t.Fatal(err)
	}
	host := func(id int64) {
		t.Helper()
		if _, err := c.Ingest(ctx, []server.IngestOp{{Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": id, "name": fmt.Sprint("at-", id), "rack": "r-at", "status": "Active"}}}); err != nil {
			t.Fatal(err)
		}
	}
	host(7001)
	time.Sleep(2 * time.Millisecond)
	between := time.Now().UTC().Format(time.RFC3339Nano)
	time.Sleep(2 * time.Millisecond)
	host(7002)
	for _, tc := range []struct {
		at   string
		rows int
	}{{"", 2}, {between, 1}} {
		res, err := stmt.Exec(ctx, &client.QueryOptions{At: tc.at})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.rows {
			t.Errorf("exec at %q: %d rows %v, want %d", tc.at, len(res.Rows), res.Rows, tc.rows)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	db := newDemoDB(t, core.WithAccessorWrapper(func(a plan.Accessor) plan.Accessor {
		return chaos.Wrap(a, chaos.WithLatency(3*time.Millisecond))
	}))
	_, c := newTestServer(t, db, server.Config{MaxInFlight: 1, MaxQueue: -1})
	ctx := context.Background()

	slow := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, retrieveQ, nil)
		slow <- err
	}()
	// Wait until the slow query holds the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := c.Query(ctx, selectQ, nil)
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded while saturated, got %v", err)
	}
	// The in-flight query completes fine — rejection sheds, it never kills.
	if err := <-slow; err != nil {
		t.Fatalf("in-flight query failed under overload: %v", err)
	}
	// Capacity freed: the same query is admitted now.
	if _, err := c.Query(ctx, selectQ, nil); err != nil {
		t.Fatalf("query after drain: %v", err)
	}
}

func TestIngestHealthMetrics(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	ctx := context.Background()

	resp, err := c.Ingest(ctx, []server.IngestOp{
		{Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": 9001, "name": "ing-1", "rack": "r9", "status": "Active"}},
		{Op: "insert-node", Class: "ComputeHost",
			Fields: map[string]any{"id": 9002, "name": "ing-2", "rack": "r9", "status": "Active"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 2 || len(resp.UIDs) != 2 {
		t.Fatalf("applied %d ops, uids %v", resp.Applied, resp.UIDs)
	}
	if _, err := c.Ingest(ctx, []server.IngestOp{{Op: "warp", Class: "X"}}); err == nil {
		t.Error("unknown ingest op accepted")
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Backend != core.BackendGremlin {
		t.Errorf("health = %+v", h)
	}

	if _, err := c.Query(ctx, selectQ, nil); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server_requests", "server_plan_cache_misses", "db_queries"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}

func TestCheckpointRequiresWAL(t *testing.T) {
	_, c := newTestServer(t, newDemoDB(t), server.Config{})
	err := c.Checkpoint(context.Background())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("checkpoint without WAL: got %v", err)
	}
}
