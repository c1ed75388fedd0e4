package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// openSlowDemo opens a demo DB whose backend sleeps 200µs per probe, so
// the demo query cannot finish inside 1ms; extra options apply last.
func openSlowDemo(t *testing.T, extra ...Option) (*DB, *netmodel.Demo) {
	t.Helper()
	db, err := Open(netmodel.MustSchema(), append([]Option{
		WithBackend(BackendGremlin),
		WithClock(temporal.NewManualClock(t0)),
		WithAccessorWrapper(func(a plan.Accessor) plan.Accessor {
			return chaos.Wrap(a, chaos.WithLatency(200*time.Microsecond))
		})}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netmodel.BuildDemo(db.Store(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	return db, d
}

const demoQuery = "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"

func TestQueryContextTypedAborts(t *testing.T) {
	limited, _ := openSlowDemo(t, WithLimits(exec.Limits{MaxDuration: time.Millisecond}))
	db, _ := openSlowDemo(t)
	before := runtime.NumGoroutine()

	// MaxDuration=1ms aborts promptly with the typed deadline error.
	start := time.Now()
	_, err := limited.Query(demoQuery)
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("MaxDuration query = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("1ms budget aborted after %v", elapsed)
	}

	p, err := db.Prepare(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-canceled context aborts before any real work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Exec(ctx); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("canceled Exec = %v, want ErrCanceled", err)
	}

	// A context deadline maps to the deadline error, not cancellation.
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := p.Exec(ctx); !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("deadline Exec = %v, want ErrDeadlineExceeded", err)
	}

	// Cooperative aborts are synchronous: no goroutines may leak. Allow
	// the runtime a moment to retire timer goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked across aborted queries: %d -> %d", before, now)
	}
}

func TestAbortObservability(t *testing.T) {
	db, _, _ := openDemo(t, BackendGremlin)
	st := stats.NewStore(16, nil)
	db.SetStatementStats(st)

	// The DB's open limits let one run finish; a per-call bound aborts
	// the other.
	p, err := db.Prepare(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), exec.RunOptions{Limits: exec.Limits{MaxPaths: 1}}); !errors.Is(err, exec.ErrLimitExceeded) {
		t.Fatalf("limited query = %v, want ErrLimitExceeded", err)
	}

	reg := db.Registry()
	if n := reg.Counter("db.queries").Value(); n != 2 {
		t.Errorf("db.queries = %d, want 2", n)
	}
	if n := reg.Counter("db.queries_aborted").Value(); n != 1 {
		t.Errorf("db.queries_aborted = %d, want 1", n)
	}
	snap := st.Snapshot(stats.SortCalls, 0)
	if len(snap.Statements) != 1 {
		t.Fatalf("statistics hold %d digests, want one: %+v", len(snap.Statements), snap.Statements)
	}
	if s := snap.Statements[0]; s.Digest != p.Digest() || s.Calls != 2 || s.OK != 1 || s.LimitHits != 1 {
		t.Errorf("statistics row = %+v; want digest %s with 2 calls, 1 ok, 1 limit", s, p.Digest())
	}
}

// entryPoints are the ways into a query, each running src on db: Query,
// Prepared.Exec, and Prepared.Run with a trace parent, with the Phys
// variable routed to other, and restricted to the pathways through
// host-1 (what standing queries patch with) — the one statement of the
// table that is not a join, since a restricted run needs a Patchable
// statement.
var entryPoints = []struct {
	name string
	src  func(t *testing.T, other *DB, d *netmodel.Demo) string
	run  func(p *Prepared, other *DB, d *netmodel.Demo) (*exec.Result, error)
}{
	{"Query", routedDemoQuery, nil},
	{"Prepared.Exec", routedDemoQuery, func(p *Prepared, _ *DB, _ *netmodel.Demo) (*exec.Result, error) {
		return p.Exec(context.Background())
	}},
	{"Run.Parent", routedDemoQuery, func(p *Prepared, _ *DB, _ *netmodel.Demo) (*exec.Result, error) {
		return p.Run(context.Background(), exec.RunOptions{Parent: obs.NewSpan("Execute", "")})
	}},
	{"Run.Routed", routedDemoQuery, func(p *Prepared, other *DB, _ *netmodel.Demo) (*exec.Result, error) {
		return p.Run(context.Background(), exec.RunOptions{Routes: map[string]*plan.Engine{"Phys": other.Engine()}})
	}},
	{"Run.Through", func(*testing.T, *DB, *netmodel.Demo) string { return demoQuery },
		func(p *Prepared, _ *DB, d *netmodel.Demo) (*exec.Result, error) {
			return p.Run(context.Background(), exec.RunOptions{Through: []graph.UID{d.Host1}})
		}},
}

// runEntryPoint runs entry point e's statement on db.
func runEntryPoint(t *testing.T, db, other *DB, d *netmodel.Demo, i int) (src string, res *exec.Result, err error) {
	t.Helper()
	e := entryPoints[i]
	src = e.src(t, other, d)
	if e.run == nil {
		res, err = db.Query(src)
		return src, res, err
	}
	p, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.run(p, other, d)
	return src, res, err
}

// TestDBLimitsBoundEveryEntryPoint: the DB's limits govern every way
// into a query, and per-call limits only tighten them — an open or
// looser per-call bound still aborts at the DB's.
func TestDBLimitsBoundEveryEntryPoint(t *testing.T) {
	db, d, _ := openDemo(t, BackendGremlin, WithLimits(exec.Limits{MaxPaths: 1}))
	other, _, _ := openDemo(t, BackendRelational)
	for i, e := range entryPoints {
		if _, _, err := runEntryPoint(t, db, other, d, i); !errors.Is(err, exec.ErrLimitExceeded) {
			t.Errorf("%s on a MaxPaths=1 DB = %v, want ErrLimitExceeded", e.name, err)
		}
	}
	p, err := db.Prepare(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	looser := exec.RunOptions{Limits: exec.Limits{MaxPaths: 1_000_000}, Parent: obs.NewSpan("Execute", "")}
	if _, err := p.Run(context.Background(), looser); !errors.Is(err, exec.ErrLimitExceeded) {
		t.Errorf("Run with a looser MaxPaths on a MaxPaths=1 DB = %v, want ErrLimitExceeded", err)
	}
}

// TestRunThroughNeedsPatchable: a join's rows are not one pathway's, so
// Run refuses to restrict one to the pathways through given elements.
func TestRunThroughNeedsPatchable(t *testing.T) {
	db, d, _ := openDemo(t, BackendGremlin)
	p, err := db.Prepare(routedDemoQuery(t, db, d))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(context.Background(), exec.RunOptions{Through: []graph.UID{d.Host1}})
	if err == nil || !strings.Contains(err.Error(), "cannot be restricted to the pathways through given elements") {
		t.Fatalf("restricted run of a join = %v, want the refusal", err)
	}
}

func routedDemoQuery(t *testing.T, db *DB, d *netmodel.Demo) string {
	t.Helper()
	id := db.Store().Object(d.FirewallVNF).Current().Fields["id"]
	return fmt.Sprintf(`Retrieve Phys
		From PATHS D1, PATHS Phys
		Where D1 MATCHES VNF(id=%v)->[Vertical()]{1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,4}
		And source(Phys)=target(D1)`, id)
}

// TestEntryPointsObserveOnce drives every way into a query through the
// one prepare → run → observe body, once on a DB without limits and once
// on a DB whose 1ms MaxDuration aborts it: a finished query is one
// db.queries increment and one ok statistics observation under the
// statement's digest; the aborted one is additionally one
// db.queries_aborted increment, and its observation's outcome is
// "deadline".
func TestEntryPointsObserveOnce(t *testing.T) {
	for i, e := range entryPoints {
		t.Run(e.name, func(t *testing.T) {
			other, _, _ := openDemo(t, BackendRelational)
			for _, lim := range []exec.Limits{{}, {MaxDuration: time.Millisecond}} {
				st := stats.NewStore(16, nil)
				db, d := openSlowDemo(t, WithLimits(lim))
				db.SetStatementStats(st)

				src, res, err := runEntryPoint(t, db, other, d, i)
				toks, lexErr := rpe.Lex(src)
				if lexErr != nil {
					t.Fatal(lexErr)
				}
				digest, _ := query.Fingerprint(toks)
				wantAborted, wantDeadline := int64(0), int64(0)
				if lim.MaxDuration == 0 {
					if err != nil || res.Digest != digest || len(res.Rows) == 0 {
						t.Fatalf("unlimited run = %v, digest %q; want rows under %q", err, res.Digest, digest)
					}
				} else {
					if !errors.Is(err, exec.ErrDeadlineExceeded) {
						t.Fatalf("1ms run = %v, want ErrDeadlineExceeded", err)
					}
					wantAborted, wantDeadline = 1, 1
				}

				reg := db.Registry()
				if q, a := reg.Counter("db.queries").Value(), reg.Counter("db.queries_aborted").Value(); q != 1 || a != wantAborted {
					t.Errorf("limits %+v: db.queries = %d, db.queries_aborted = %d; want 1 and %d", lim, q, a, wantAborted)
				}
				snap := st.Snapshot(stats.SortCalls, 0)
				if len(snap.Statements) != 1 {
					t.Fatalf("statistics hold %d digests, want one: %+v", len(snap.Statements), snap.Statements)
				}
				if s := snap.Statements[0]; s.Digest != digest || s.Calls != 1 || s.OK != 1-wantDeadline || s.Deadline != wantDeadline {
					t.Errorf("limits %+v: statistics row = %+v; want digest %s with 1 call, %d deadline", lim, s, digest, wantDeadline)
				}
			}
		})
	}
}
