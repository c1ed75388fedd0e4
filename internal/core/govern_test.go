package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// openSlowDemo opens a demo DB whose backend sleeps 200µs per probe, so
// the demo query cannot finish inside 1ms; extra options apply last.
func openSlowDemo(t *testing.T, extra ...Option) *DB {
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
	if _, err := netmodel.BuildDemo(db.Store(), 1000); err != nil {
		t.Fatal(err)
	}
	return db
}

const demoQuery = "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"

func TestQueryContextTypedAborts(t *testing.T) {
	limited := openSlowDemo(t, WithLimits(exec.Limits{MaxDuration: time.Millisecond}))
	db := openSlowDemo(t)
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

	// A pre-canceled context aborts before any real work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, demoQuery); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("canceled QueryContext = %v, want ErrCanceled", err)
	}

	// A context deadline maps to the deadline error, not cancellation.
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := db.QueryContext(ctx, demoQuery); !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("deadline QueryContext = %v, want ErrDeadlineExceeded", err)
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
	// Threshold far above any demo query: only the abort rule can log.
	slowLog := obs.NewSlowLog(time.Hour, nil)
	db, _, _ := openDemo(t, BackendGremlin, WithLimits(exec.Limits{MaxPaths: 1}), WithSlowLog(slowLog))

	// Per-call limits replace the DB's: the unlimited run finishes.
	p, err := db.Prepare(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecTraced(context.Background(), exec.Limits{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(demoQuery); !errors.Is(err, exec.ErrLimitExceeded) {
		t.Fatalf("limited query = %v, want ErrLimitExceeded", err)
	}

	reg := db.Registry()
	if n := reg.Counter("db.queries").Value(); n != 2 {
		t.Errorf("db.queries = %d, want 2", n)
	}
	if n := reg.Counter("db.queries_aborted").Value(); n != 1 {
		t.Errorf("db.queries_aborted = %d, want 1", n)
	}
	entries := slowLog.Entries()
	if len(entries) != 1 {
		t.Fatalf("slow log entries = %d, want only the aborted query", len(entries))
	}
	e := entries[0]
	if e.Outcome != "limit" || !e.Aborted() {
		t.Errorf("entry outcome = %q (aborted=%v), want limit", e.Outcome, e.Aborted())
	}
	if e.Query != demoQuery {
		t.Errorf("entry query = %q", e.Query)
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
// statement's digest, and the aborted one is additionally one
// db.queries_aborted increment and one slow-log entry with outcome
// "deadline".
func TestEntryPointsObserveOnce(t *testing.T) {
	bg := context.Background()
	entryPoints := map[string]func(db, other *DB, src string) (*exec.Result, error){
		"Query":        func(db, _ *DB, src string) (*exec.Result, error) { return db.Query(src) },
		"QueryContext": func(db, _ *DB, src string) (*exec.Result, error) { return db.QueryContext(bg, src) },
		"ExplainAnalyze": func(db, _ *DB, src string) (*exec.Result, error) {
			_, res, err := db.ExplainAnalyze(src)
			return res, err
		},
		"QueryRouted": func(db, other *DB, src string) (*exec.Result, error) {
			return db.QueryRouted(src, map[string]*DB{"Phys": other})
		},
		"Prepared.Exec": func(db, _ *DB, src string) (*exec.Result, error) {
			p, err := db.Prepare(src)
			if err != nil {
				return nil, err
			}
			return p.Exec(bg)
		},
		"Prepared.ExecTraced": func(db, _ *DB, src string) (*exec.Result, error) {
			p, err := db.Prepare(src)
			if err != nil {
				return nil, err
			}
			return p.ExecTraced(bg, db.Limits(), obs.NewSpan("Execute", ""))
		},
	}
	for name, call := range entryPoints {
		t.Run(name, func(t *testing.T) {
			other, d, _ := openDemo(t, BackendRelational)
			src := routedDemoQuery(t, other, d)
			digest, _ := stats.Fingerprint(src)
			for _, lim := range []exec.Limits{{}, {MaxDuration: time.Millisecond}} {
				// Threshold far above any demo query: only the abort rule can log.
				slowLog, st := obs.NewSlowLog(time.Hour, nil), stats.NewStore(16, nil)
				db := openSlowDemo(t, WithLimits(lim), WithSlowLog(slowLog))
				db.SetStatementStats(st)

				res, err := call(db, other, src)
				wantAborted, wantDeadline, wantEntries := int64(0), int64(0), 0
				if lim.MaxDuration == 0 {
					if err != nil || res.Digest != digest {
						t.Fatalf("unlimited run = %v, digest %q; want ok under %q", err, res.Digest, digest)
					}
				} else {
					if !errors.Is(err, exec.ErrDeadlineExceeded) {
						t.Fatalf("1ms run = %v, want ErrDeadlineExceeded", err)
					}
					wantAborted, wantDeadline, wantEntries = 1, 1, 1
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
				entries := slowLog.Entries()
				if len(entries) != wantEntries {
					t.Fatalf("limits %+v: slow log = %+v; want %d entries", lim, entries, wantEntries)
				}
				if wantEntries == 1 && (entries[0].Outcome != "deadline" || entries[0].Digest != digest || entries[0].Query != src) {
					t.Errorf("slow log = %+v; want one deadline entry for the statement", entries)
				}
			}
		})
	}
}
