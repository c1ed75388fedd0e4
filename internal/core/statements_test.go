package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/stats"
)

// compileFresh is what Prepare did before the statement table: lex, parse
// and analyze src from scratch. It is the reference a bound template must
// match.
func compileFresh(db *DB, src string) (*Prepared, error) {
	toks, err := rpe.Lex(src)
	if err != nil {
		return nil, err
	}
	q, err := query.ParseTokens(src, toks)
	if err != nil {
		return nil, err
	}
	db.stmts.mu.RLock()
	views := db.stmts.views
	db.stmts.mu.RUnlock()
	a, err := query.AnalyzeWithViews(q, db.Schema(), views)
	if err != nil {
		return nil, err
	}
	s := &shape{}
	s.digest, s.norm = query.Fingerprint(toks)
	return &Prepared{db: db, src: src, a: a, shape: s}, nil
}

// answer renders everything a statement's execution shows: its plan, its
// rows with their pathways and validity (or its aggregate), its metrics
// and its fingerprint — or its error.
func answer(p *Prepared, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	res, err := p.Exec(context.Background())
	if err != nil {
		return "exec error: " + err.Error()
	}
	return fmt.Sprintf("%s%s%+v\n%s %s", p.Explain(), res.Format(p.db.RenderPath), res.Metrics,
		p.Digest(), p.NormalizedText())
}

// genStatement draws one statement of a few shapes, with random literals
// — some of them invalid — and random repetition bounds and IN-list
// lengths, which change the shape.
func genStatement(rng *rand.Rand) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	ts := func() string {
		return pick("'2017-02-14 23:00:00'", "'2017-02-15 00:30'", "'2017-02-15 01:30:00'",
			"'2017-02-15 03:00:00'", "'2017-02-15'", "'2017-02-15T02:00:00Z'", "'not a time'", "'2017-13-40'")
	}
	id := func() string { return fmt.Sprint(1000 + rng.Intn(20)) }
	name := func() string { return pick("'vm-1'", "'vm-2'", "'vm-3'", "'host-1'", "'host-2'", "'it''s'", "''") }
	in := func(gen func() string) string {
		items := make([]string, 1+rng.Intn(3))
		for i := range items {
			items[i] = gen()
		}
		return strings.Join(items, ", ")
	}
	hi := 1 + rng.Intn(6)
	bounds := fmt.Sprintf("{%d,%d}", 1+rng.Intn(hi), hi)
	switch rng.Intn(12) {
	case 0:
		return fmt.Sprintf("Retrieve P From PATHS P Where P MATCHES VNF(id=%s)->[Vertical()]%s->Host()", id(), bounds)
	case 1:
		return fmt.Sprintf("Select source(P).name, target(P).name From PATHS P Where P MATCHES VM(status=%s)->OnServer()->Host(name IN (%s))",
			pick("'Green'", "'Red'"), in(name))
	case 2:
		return fmt.Sprintf("AT %s Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]%s->Host(id=%s)", ts(), bounds, id())
	case 3:
		return fmt.Sprintf("AT %s : %s Retrieve P From PATHS P Where P MATCHES VM(name=%s)->OnServer()->Host()", ts(), ts(), name())
	case 4:
		return fmt.Sprintf("Select count(P) From PATHS P Where P MATCHES Host(rack IN (%s))", in(func() string { return pick("'r1'", "'r2'", "'r9'") }))
	case 5:
		return fmt.Sprintf(`Retrieve V From PATHS V Where V MATCHES VM(flavor=%s) And NOT EXISTS(
			Retrieve P From PATHS P Where P MATCHES VFC(role=%s)->OnVM()->VM(id > %s) And target(V) = target(P))`,
			pick("'m1.large'", "'m1.small'"), pick("'ingress'", "'resolver'", "'none'"), id())
	case 6:
		return fmt.Sprintf(`Select source(P).name, source(Q).name From PATHS P(@%s), Q(@%s : %s)
			Where P MATCHES VM(id=%s)->OnServer()->Host() And Q MATCHES VM()->OnServer()->Host(id=%s) And target(P) = target(Q)`,
			ts(), ts(), ts(), id(), id())
	case 7:
		return fmt.Sprintf("Retrieve P From PATHS P Where P MATCHES VNF(serviceId >= %s)->ComposedOf()->VFC()",
			pick("-3", "7", "7.5", "-0.5", "99999999999999999999", "8"))
	case 8:
		return fmt.Sprintf("Select source(P).name From PATHS P Where P MATCHES VM(ipAddress=%s)->OnServer()->Host()",
			pick("'10.0.0.1'", "'10.0.0.3'", "'not-an-ip'", "'10.0.0.300'"))
	case 9:
		return fmt.Sprintf("Select source(P).name From PATHS P Where P MATCHES VM(name =~ %s)->OnServer()->Host(status != %s)",
			pick("'vm-*'", "'*-2'", "'*'", "'x*'"), pick("'Active'", "'Down'"))
	case 10:
		return fmt.Sprintf("%s AT %s : %s Retrieve P From PATHS P Where P MATCHES VM(status=%s)->OnServer()->Host()",
			pick("First Time When Exists", "Last Time When Exists", "When Exists"), ts(), ts(), pick("'Red'", "'Green'"))
	}
	return fmt.Sprintf("Select source(P).name From Placements P Where P MATCHES VM(status=%s)->OnServer()->Host(id=%s)",
		pick("'Green'", "'Red'"), id())
}

// TestGenericPlansMatchFreshCompile is the statement table's differential
// test: random statements, many of them literal substitutions into a
// shape the table already holds, must answer exactly as a fresh compile
// of the same text — plan, rows, pathways, validity, metrics, digest, and
// the error of an invalid literal.
func TestGenericPlansMatchFreshCompile(t *testing.T) {
	db, d, clock := openDemo(t, BackendGremlin)
	if err := db.DefineView("Placements", "VM()->OnServer()->Host()"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	red := db.Store().Object(d.VM1).Current().Fields.Clone()
	red["status"] = "Red"
	if err := db.Update(d.VM1, red); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	if err := db.Delete(d.VM3); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)

	rng := rand.New(rand.NewSource(1))
	hits, errs := 0, 0
	for i := 0; i < 600; i++ {
		src := genStatement(rng)
		p, err := db.Prepare(src)
		if err == nil && p.Cached() {
			hits++
		}
		got := answer(p, err)
		want := answer(compileFresh(db, src))
		if got != want {
			t.Fatalf("statement %d: %s\n--- from the statement table (cached=%v):\n%s\n--- fresh compile:\n%s",
				i, src, err == nil && p.Cached(), got, want)
		}
		if err != nil {
			errs++
		}
	}
	t.Logf("%d of 600 statements bound a compiled shape, %d failed", hits, errs)
	if hits < 300 || errs == 0 {
		t.Errorf("%d of 600 statements bound a compiled shape and %d failed; the mix should exercise both", hits, errs)
	}
}

// TestStatementTableBounded: the table keeps at most the statistics
// store's top-K shapes, evicting past it.
func TestStatementTableBounded(t *testing.T) {
	db, _, _ := openDemo(t, BackendGremlin)
	for i := range stats.DefaultMaxStatements + 10 {
		src := fmt.Sprintf("Retrieve P From PATHS P Where P MATCHES Host(rack IN (%s))",
			strings.Repeat("'r1', ", i)+"'r2'")
		if _, err := db.Prepare(src); err != nil {
			t.Fatal(err)
		}
	}
	if n, evicted := db.StatementTable(); n != stats.DefaultMaxStatements || evicted != 10 {
		t.Errorf("table holds %d shapes after %d evictions, want %d after 10", n, evicted, stats.DefaultMaxStatements)
	}
}

// TestRedefinedViewAnswersNewDefinition: redefining a view drops the
// shapes compiled against the old one, so the same statement text
// answers with the new definition.
func TestRedefinedViewAnswersNewDefinition(t *testing.T) {
	db, _, _ := openDemo(t, BackendGremlin)
	const q = "Select source(P).name From V P"
	count := func() int {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	if err := db.DefineView("V", "VM()->OnServer()->Host()"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 3 {
		t.Fatalf("VM placements = %d, want 3", n)
	}
	if err := db.DefineView("V", "VNF()"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 2 {
		t.Errorf("after redefining V as VNF(): %d rows, want the 2 VNFs", n)
	}
}

// TestDefineViewBesideQuery runs DefineView beside two goroutines
// querying over the view; under -race it checks the views and the table
// are guarded and concurrent compiles over one view share it read-only.
func TestDefineViewBesideQuery(t *testing.T) {
	db, _, _ := openDemo(t, BackendGremlin)
	if err := db.DefineView("V0", "VM()->OnServer()->Host()"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := range 200 {
			if err := db.DefineView("V0", []string{"VM()->OnServer()->Host()", "VM()"}[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 2 {
		go func() {
			defer wg.Done()
			for range 200 {
				if _, err := db.Query("Select source(P).name From V0 P"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBindAllocations guards what a statement-table hit allocates — the
// work behind most statements a server answers: the lex, the shape
// lookup, and binding the literals (a predicate recompiled, a time
// window, the copied analysis around them). A compile of the same
// statement (query.TestCompileAllocations) costs about three times as
// much; -v logs the count.
func TestBindAllocations(t *testing.T) {
	db, _, _ := openDemo(t, BackendGremlin)
	srcs := make([]string, 64)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(`AT '2017-02-15 10:00:00' Retrieve P From PATHS P `+
			`Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001, name!='q%d')`, i)
	}
	if _, err := db.Prepare(srcs[0]); err != nil {
		t.Fatal(err)
	}
	k := 0
	bind := func() {
		p, err := db.Prepare(srcs[k%len(srcs)])
		k++
		if err != nil || !p.Cached() {
			t.Fatalf("prepare: %v (cached %v)", err, err == nil && p.Cached())
		}
	}
	allocs := testing.AllocsPerRun(50, bind)
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		bind()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("bind: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 35 {
		t.Errorf("binding one statement makes %.0f allocations, want at most 35", allocs)
	}
	if bytes > 4608 {
		t.Errorf("binding one statement allocates %d bytes, want at most 4608", bytes)
	}
}
