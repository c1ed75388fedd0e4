package query

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/rpe"
)

var sch = netmodel.MustSchema()

// paperQueries is every query from §3.4 and §4 of the paper (with class
// names adjusted to the netmodel schema).
var paperQueries = []string{
	`Retrieve P From PATHS P WHERE P MATCHES VNF()->VFC()->VM()->Host(id=23245)`,

	`Retrieve P From PATHS P WHERE P MATCHES VNF()->[Vertical()]{1,6}->Host(id=23245)`,

	`Retrieve Phys
	 From PATHS D1, PATHS D2, PATHS Phys
	 Where D1 MATCHES VNF(id=123)->Vertical(){1,6}->Host()
	 And D2 MATCHES VNF(id=234)->Vertical(){1,6}->Host()
	 And Phys MATCHES ConnectsTo(){1,8}
	 And source(Phys)=target(D1)
	 And target(Phys)=target(D2)`,

	`Retrieve V From PATHS V
	 Where V MATCHES VM()
	 And NOT EXISTS(
	   Retrieve P from PATHS P
	   Where P MATCHES (VNF()|VFC())->[HostedOn()]{1,5}->VM()
	   And target(V) = target(P)
	 )`,

	`Select source(V).name, source(V).id From PATHS V Where V MATCHES VM()`,

	`AT '2017-02-15 10:00:00'
	 Select source(P) From PATHS P
	 Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)`,

	`Select source(P) From PATHS P(@'2017-02-15 10:00'), Q(@'2017-02-15 11:00')
	 Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)
	 And Q MATCHES VNF()->[HostedOn()]{1,6}->Host(id=34356)
	 And source(P) = source(Q)`,

	`AT '2017-02-15 09:00' : '2017-02-15 11:00'
	 Select source(P) From PATHS P
	 Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)`,

	`First Time When Exists Retrieve P From PATHS P Where P MATCHES VM(status='Red')`,
	`Last Time When Exists Retrieve P From PATHS P Where P MATCHES VM(status='Red')`,
	`When Exists Retrieve P From PATHS P Where P MATCHES VM(status='Red')`,
}

func TestParsePaperQueries(t *testing.T) {
	for _, src := range paperQueries {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse failed: %v\n  query: %s", err, src)
			continue
		}
		// The canonical rendering must reparse to the same rendering.
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse of %q: %v", q.String(), err)
			continue
		}
		if q.String() != q2.String() {
			t.Errorf("print/parse round trip: %q != %q", q.String(), q2.String())
		}
	}
}

func TestParseStructure(t *testing.T) {
	q := MustParse(`AT '2017-02-15 10:00:00' Select source(P).name From PATHS P Where P MATCHES VM()`)
	if q.Verb != Select {
		t.Error("verb")
	}
	if q.At == nil || q.At.IsRange || !q.At.Start.Equal(time.Date(2017, 2, 15, 10, 0, 0, 0, time.UTC)) {
		t.Errorf("at = %+v", q.At)
	}
	if len(q.Projs) != 1 || q.Projs[0].Fn != FnSource || q.Projs[0].Field != "name" {
		t.Errorf("projs = %+v", q.Projs)
	}
	if len(q.Vars) != 1 || q.Vars[0].Name != "P" {
		t.Errorf("vars = %+v", q.Vars)
	}

	q = MustParse(`AT '2017-02-15 09:00' : '2017-02-15 11:00' Retrieve P From PATHS P Where P MATCHES VM()`)
	if q.At == nil || !q.At.IsRange || !q.At.End.Equal(time.Date(2017, 2, 15, 11, 0, 0, 0, time.UTC)) {
		t.Errorf("range at = %+v", q.At)
	}

	q = MustParse(`Retrieve P From PATHS P(@'2017-02-15 10:00') Where P MATCHES VM()`)
	if q.Vars[0].At == nil || q.Vars[0].At.IsRange {
		t.Errorf("var at = %+v", q.Vars[0].At)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"missing from", `Retrieve P Where P MATCHES VM()`},
		{"missing verb", `From PATHS P Where P MATCHES VM()`},
		{"reserved var", `Retrieve source From PATHS source`},
		{"bad time", `AT 'not a time' Retrieve P From PATHS P Where P MATCHES VM()`},
		{"inverted range", `AT '2017-02-15 11:00' : '2017-02-15 09:00' Retrieve P From PATHS P Where P MATCHES VM()`},
		{"dangling and", `Retrieve P From PATHS P Where P MATCHES VM() And`},
		{"unclosed subquery", `Retrieve P From PATHS P Where NOT EXISTS( Retrieve Q From PATHS Q Where Q MATCHES VM()`},
		{"len with field", `Select len(P).name From PATHS P Where P MATCHES VM()`},
		{"bad join op", `Retrieve P From PATHS P Where source(P) < target(P) And P MATCHES VM()`},
	}
	for _, c := range bad {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: accepted: %s", c.name, c.src)
		}
	}
}

func TestAnalyzeBindsMatches(t *testing.T) {
	q := MustParse(`Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=5)`)
	a, err := Analyze(q, sch)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checked["P"] == nil {
		t.Fatal("checked RPE not bound")
	}
	if len(a.Checked["P"].Atoms()) != 3 {
		t.Errorf("atoms = %d", len(a.Checked["P"].Atoms()))
	}
}

func TestAnalyzeErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"no matches", `Retrieve P From PATHS P`},
		{"undeclared in matches", `Retrieve P From PATHS P Where P MATCHES VM() And Q MATCHES VM()`},
		{"double matches", `Retrieve P From PATHS P Where P MATCHES VM() And P MATCHES VNF()`},
		{"undeclared projection", `Retrieve Q From PATHS P Where P MATCHES VM()`},
		{"fn in retrieve", `Retrieve source(P) From PATHS P Where P MATCHES VM()`},
		{"unknown class", `Retrieve P From PATHS P Where P MATCHES Blob()`},
		{"bad field on endpoint", `Select source(P).vnfType From PATHS P Where P MATCHES VM()->OnServer()->Host()`},
		{"bare var join", `Retrieve P From PATHS P, PATHS Q Where P MATCHES VM() And Q MATCHES VM() And P = Q`},
		{"undeclared join var", `Retrieve P From PATHS P Where P MATCHES VM() And source(P) = source(Z)`},
	}
	for _, c := range bad {
		q, err := Parse(c.src)
		if err != nil {
			t.Errorf("%s: parse failed unexpectedly: %v", c.name, err)
			continue
		}
		if _, err := Analyze(q, sch); err == nil {
			t.Errorf("%s: analysis accepted: %s", c.name, c.src)
		}
	}
}

func TestAnalyzeEndpointClasses(t *testing.T) {
	// source(P) of a VM()->...->Host() pathway is VM; projecting a
	// VM-declared field works, projecting a Host field does not.
	q := MustParse(`Select source(P).flavor, target(P).rack From PATHS P Where P MATCHES VM()->OnServer()->Host()`)
	if _, err := Analyze(q, sch); err != nil {
		t.Errorf("VM/Host endpoint fields rejected: %v", err)
	}
	// An RPE beginning with an edge atom has an implicit source node whose
	// class is Node: only base fields project.
	q = MustParse(`Select source(P).name From PATHS P Where P MATCHES OnServer()`)
	if _, err := Analyze(q, sch); err != nil {
		t.Errorf("base field on implicit endpoint rejected: %v", err)
	}
	q = MustParse(`Select source(P).flavor From PATHS P Where P MATCHES OnServer()`)
	if _, err := Analyze(q, sch); err == nil {
		t.Error("subclass field on implicit Node endpoint accepted")
	}
	// Alternation endpoints give the LCA: (VM()|Docker()) -> Container.
	q = MustParse(`Select source(P).status From PATHS P Where P MATCHES (VM()|Docker())`)
	if _, err := Analyze(q, sch); err != nil {
		t.Errorf("LCA field rejected: %v", err)
	}
	q = MustParse(`Select source(P).flavor From PATHS P Where P MATCHES (VM()|Docker())`)
	if _, err := Analyze(q, sch); err == nil {
		t.Error("VM-only field on Container LCA accepted")
	}
}

func TestAnalyzeCorrelatedSubquery(t *testing.T) {
	q := MustParse(`Retrieve V From PATHS V
		Where V MATCHES VM()
		And NOT EXISTS(
			Retrieve P from PATHS P
			Where P MATCHES (VNF()|VFC())->[OnVM()]{1,5}->VM()
			And target(V) = target(P)
		)`)
	a, err := Analyze(q, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Subqueries) != 1 {
		t.Fatalf("subqueries = %d", len(a.Subqueries))
	}
	sub := a.Subqueries[0]
	if !sub.IsOuterRef("V") {
		t.Error("V must be an outer reference inside the subquery")
	}
	if sub.IsOuterRef("P") {
		t.Error("P is local to the subquery")
	}
}

func TestEndpointClassHelpers(t *testing.T) {
	c, err := rpe.CheckString("VNF()->[Vertical()]{1,6}->Host()", sch)
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.SourceClass()
	if err != nil || src.Name != netmodel.VNF {
		t.Errorf("SourceClass = %v, %v", src, err)
	}
	tgt, err := c.TargetClass()
	if err != nil || tgt.Name != netmodel.Host {
		t.Errorf("TargetClass = %v, %v", tgt, err)
	}
}

func TestQueryStringRendering(t *testing.T) {
	q := MustParse(`Retrieve P From PATHS P Where P MATCHES VM(status='Green')`)
	s := q.String()
	for _, want := range []string{"Retrieve P", "PATHS P", "MATCHES", "VM(status='Green')"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering %q missing %q", s, want)
		}
	}
}

func TestParseViewSource(t *testing.T) {
	q := MustParse(`Retrieve P From Placements P`)
	if q.Vars[0].Source != "Placements" || q.Vars[0].Name != "P" {
		t.Fatalf("view var = %+v", q.Vars[0])
	}
	// Analysis without the view in scope fails; with it, the view supplies
	// the implicit MATCHES.
	if _, err := Analyze(q, sch); err == nil {
		t.Fatal("unknown view accepted")
	}
	views := placementsView(t)
	q = MustParse(`Retrieve P From Placements P`)
	a, err := AnalyzeWithViews(q, sch, views)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checked["P"] == nil {
		t.Fatal("view MATCHES not bound")
	}
	if len(a.ViewChecked) != 0 {
		t.Fatal("no extra filter expected when the view is the only constraint")
	}
	// Combined with explicit MATCHES, the view stays as a filter.
	q = MustParse(`Retrieve P From Placements P Where P MATCHES VM(status='Green')->OnServer()->Host()`)
	a, err = AnalyzeWithViews(q, sch, views)
	if err != nil {
		t.Fatal(err)
	}
	if a.ViewChecked["P"] == nil {
		t.Fatal("view filter missing when combined with explicit MATCHES")
	}
	// String round trip keeps the view source.
	if !strings.Contains(q.String(), "Placements P") {
		t.Errorf("rendering lost the view: %s", q.String())
	}
}

func TestParseCountProjection(t *testing.T) {
	q := MustParse(`Select count(P) From PATHS P Where P MATCHES VM()`)
	if q.Projs[0].Fn != FnCount {
		t.Fatalf("projs = %+v", q.Projs)
	}
	if _, err := Analyze(q, sch); err != nil {
		t.Fatal(err)
	}
	// count in Retrieve or joins is rejected.
	q = MustParse(`Retrieve count(P) From PATHS P Where P MATCHES VM()`)
	if _, err := Analyze(q, sch); err == nil {
		t.Fatal("count in Retrieve accepted")
	}
	q = MustParse(`Select count(P) From PATHS P, PATHS Q Where P MATCHES VM() And Q MATCHES VM() And count(P) = count(Q)`)
	if _, err := Analyze(q, sch); err == nil {
		t.Fatal("count in join accepted")
	}
}

// placementsView is the view set of the view tests: Placements, checked
// against the test schema as core.DB.DefineView checks it.
func placementsView(tb testing.TB) Views {
	c, err := rpe.CheckString("VM()->OnServer()->Host()", sch)
	if err != nil {
		tb.Fatal(err)
	}
	return Views{"Placements": c}
}
