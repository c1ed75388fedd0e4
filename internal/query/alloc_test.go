package query

import (
	"runtime"
	"testing"

	"repro/internal/rpe"
)

// TestCompileAllocations guards what compiling one statement allocates —
// the work behind every plan-cache miss: one lex, the parse from those
// tokens, analysis (which builds the automaton and its feasibility
// masks), and the fingerprint from the same tokens.
func TestCompileAllocations(t *testing.T) {
	const src = `AT '2017-02-15 10:00:00' Retrieve P From PATHS P ` +
		`Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001, name!='q')`
	compile := func() {
		toks, err := rpe.Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseTokens(src, toks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(q, sch); err != nil {
			t.Fatal(err)
		}
		Fingerprint(toks)
	}
	compile()
	allocs := testing.AllocsPerRun(50, compile)
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("compile: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 120 {
		t.Errorf("compiling one statement makes %.0f allocations, want at most 120", allocs)
	}
	if bytes > 12<<10 {
		t.Errorf("compiling one statement allocates %d bytes, want at most %d", bytes, 12<<10)
	}
}
