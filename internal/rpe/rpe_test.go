package rpe

import (
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/schema"
)

var testSchema = netmodel.MustSchema()

func checked(t *testing.T, src string) *Checked {
	t.Helper()
	c, err := CheckString(src, testSchema)
	if err != nil {
		t.Fatalf("CheckString(%q): %v", src, err)
	}
	return c
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("VNF(id=55, name=~'fw*')->[Vertical()]{1,6}->Host()")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]Kind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []Kind{
		KindIdent, KindLParen, KindIdent, KindEq, KindInt, KindComma, KindIdent,
		KindMatch, KindString, KindRParen, KindArrow, KindLBrack, KindIdent,
		KindLParen, KindRParen, KindRBrack, KindLBrace, KindInt, KindComma, KindInt,
		KindRBrace, KindArrow, KindIdent, KindLParen, KindRParen, KindEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex("VM(name='it''s')")
	if err != nil {
		t.Fatal(err)
	}
	if toks[4].Kind != KindString || toks[4].Text != "it's" {
		t.Errorf("escaped string = %+v", toks[4])
	}
	if _, err := Lex("VM(name='oops"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Lex("VM(name=$)"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestParsePaperExamples(t *testing.T) {
	// Every RPE that appears in the paper's text must parse.
	examples := []string{
		"VNF()->VFC()->VM()->Host(id=23245)",
		"VNF()->[Vertical()]{1,6}->Host(id=23245)",
		"VNF(id=123)->Vertical(){1,6}->Host()",
		"ConnectsTo(){1,8}",
		"(VNF()|VFC())->[HostedOn(){1,5}]->VM()",
		"VNF()->[HostedOn()]{1,6}->Host(id=23245)",
		"VNF()->[HostedOn()]{1-3}->(VM(id=55)|Docker(id=66))->HostedOn(){1,2}->Host()",
		"VNF(id=55)->[ConnectsTo(){1,5}]->VM(id=66)",
		"[HostedOn()|ConnectsTo()]{1,4}",
		"Host(name='src')->[ConnectsTo()]{1,6}->Host(name='tgt')",
		"[VNF()]{0,4}->[Vertical()]{0,4}",
		"VM(status='Green')",
	}
	for _, src := range examples {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseStructure(t *testing.T) {
	e := MustParse("VNF()->[Vertical()]{1,6}->Host(id=23245)")
	seq, ok := e.(*Sequence)
	if !ok || len(seq.Parts) != 3 {
		t.Fatalf("parse shape = %T %v", e, e)
	}
	rep, ok := seq.Parts[1].(*Repetition)
	if !ok || rep.Min != 1 || rep.Max != 6 {
		t.Fatalf("repetition = %+v", seq.Parts[1])
	}
	if a, ok := seq.Parts[2].(*Atom); !ok || a.Class != "Host" || len(a.Preds) != 1 {
		t.Fatalf("tail atom = %+v", seq.Parts[2])
	}
	// {n} means exactly n.
	e = MustParse("ConnectsTo(){3}")
	if rep, ok := e.(*Repetition); !ok || rep.Min != 3 || rep.Max != 3 {
		t.Fatalf("fixed repetition = %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"VNF",          // missing parens
		"VNF()->",      // dangling arrow
		"VNF(id=)",     // missing value
		"VNF(id 5)",    // missing operator
		"VNF(){2,1}",   // inverted bounds
		"VNF(){0,0}",   // empty repetition
		"VNF()|",       // dangling pipe
		"(VNF()",       // unclosed paren
		"[VNF()",       // unclosed bracket
		"VNF(id=5",     // unclosed atom
		"VNF(){1,}",    // missing upper bound
		"VNF(id=-'x')", // minus before string
		"VNF() Host()", // juxtaposition without arrow
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	sources := []string{
		"VNF()->VFC()->VM()->Host(id=23245)",
		"VNF()->[Vertical()]{1,6}->Host(id=23245)",
		"(VNF()|VFC())->[HostedOn()]{1,5}->VM()",
		"VM(status='Green', id>10)",
		"VM(id IN (1, 2, 3))",
		"[HostedOn()|ConnectsTo()]{1,4}",
	}
	for _, src := range sources {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, e1.String(), err)
			continue
		}
		if e1.String() != e2.String() {
			t.Errorf("round trip: %q -> %q", e1.String(), e2.String())
		}
	}
}

func TestMinMaxLen(t *testing.T) {
	cases := []struct {
		src      string
		min, max int
	}{
		{"VM()", 1, 1},
		{"VNF()->VFC()", 2, 3}, // skip may absorb one edge
		// MaxLen is a sound upper bound: every join point may absorb one
		// element even when parity makes some combinations unrealizable.
		{"VNF()->[Vertical()]{1,6}->Host()", 3, 15},
		{"(VM()|VNF()->VFC())", 1, 3},
		{"[ConnectsTo()]{2,4}", 3, 7},
	}
	for _, c := range cases {
		e := MustParse(c.src)
		if e.MinLen() != c.min {
			t.Errorf("%q MinLen = %d, want %d", c.src, e.MinLen(), c.min)
		}
		if e.MaxLen() != c.max {
			t.Errorf("%q MaxLen = %d, want %d", c.src, e.MaxLen(), c.max)
		}
	}
}

func TestNormalizeFlattens(t *testing.T) {
	e := &Sequence{Parts: []Expr{
		&Sequence{Parts: []Expr{&Atom{Class: "VNF"}, &Atom{Class: "VFC"}}},
		&Repetition{Body: &Atom{Class: "VM"}, Min: 1, Max: 1},
	}}
	n := Normalize(e)
	seq, ok := n.(*Sequence)
	if !ok || len(seq.Parts) != 3 {
		t.Fatalf("Normalize = %v", n)
	}
	for _, p := range seq.Parts {
		if _, isAtom := p.(*Atom); !isAtom {
			t.Errorf("part %v not flattened to atom", p)
		}
	}
	// Idempotence.
	if Normalize(n).String() != n.String() {
		t.Error("Normalize not idempotent")
	}
}

func TestCheckBindsClassesAndKinds(t *testing.T) {
	c := checked(t, "VNF()->[Vertical()]{1,6}->Host(id=23245)")
	atoms := c.Atoms()
	if len(atoms) != 3 {
		t.Fatalf("atoms = %d", len(atoms))
	}
	if !c.ClassOf(atoms[0]).IsNode() {
		t.Error("VNF atom must bind to a node class")
	}
	if !c.ClassOf(atoms[1]).IsEdge() {
		t.Error("Vertical atom must bind to an edge class")
	}
}

func TestCheckStrongTyping(t *testing.T) {
	bad := []struct{ name, src string }{
		{"unknown class", "Blob()"},
		{"unknown field", "VM(color='red')"},
		{"subclass field through parent", "Container(flavor='m1')"},
		{"value type mismatch", "VM(id='abc')"},
		{"match on non-string pattern", "VM(id=~5)"},
	}
	for _, c := range bad {
		if _, err := CheckString(c.src, testSchema); err == nil {
			t.Errorf("%s (%s): accepted", c.name, c.src)
		}
	}
	// Subclass fields are visible through the subclass atom itself.
	if _, err := CheckString("VM(flavor='m1.large')", testSchema); err != nil {
		t.Errorf("subclass field on own atom rejected: %v", err)
	}
}

func TestSatisfiesInheritance(t *testing.T) {
	c := checked(t, "VM(status='Green')")
	atom := c.Atoms()[0]
	vmware := testSchema.MustClass("VMWare")
	docker := testSchema.MustClass(netmodel.Docker)

	if !c.Satisfies(atom, vmware, vmware.NewRecord(map[string]any{"status": "Green"}, nil)) {
		t.Error("VM atom must match VMWare records (subclass polymorphism)")
	}
	if c.Satisfies(atom, docker, docker.NewRecord(map[string]any{"status": "Green"}, nil)) {
		t.Error("VM atom must not match Docker records (§3.3)")
	}
	if c.Satisfies(atom, vmware, vmware.NewRecord(map[string]any{"status": "Red"}, nil)) {
		t.Error("predicate must filter")
	}
	if c.Satisfies(atom, vmware, vmware.NewRecord(map[string]any{}, nil)) {
		t.Error("absent field must not satisfy equality")
	}
}

// elems builds an alternating element pathway from class names; fields for
// each element are supplied positionally.
func elems(t *testing.T, classFields ...any) []Element {
	t.Helper()
	var out []Element
	for i := 0; i < len(classFields); i += 2 {
		name := classFields[i].(string)
		fields := classFields[i+1].(map[string]any)
		cls, ok := testSchema.Class(name)
		if !ok {
			t.Fatalf("unknown class %q", name)
		}
		out = append(out, Element{Class: cls, Rec: cls.NewRecord(fields, nil)})
	}
	return out
}

func TestMatchesPathwayNodeChain(t *testing.T) {
	// VNF()->VFC()->VM()->Host(id=23245): node atoms with edges absorbed.
	c := checked(t, "VNF()->VFC()->VM()->Host(id=23245)")
	p := elems(t,
		"DNS", map[string]any{"id": int64(1)},
		"ComposedOf", map[string]any{},
		"Proxy", map[string]any{},
		"OnVM", map[string]any{},
		"VMWare", map[string]any{},
		"OnServer", map[string]any{},
		"ComputeHost", map[string]any{"id": int64(23245)},
	)
	if !c.MatchesPathway(p) {
		t.Fatal("layered pathway must match node-chain RPE")
	}
	// Wrong host id must not match.
	p[6].Rec = p[6].Class.NewRecord(map[string]any{"id": int64(99)}, nil)
	if c.MatchesPathway(p) {
		t.Fatal("wrong anchor id matched")
	}
}

func TestMatchesPathwayVerticalRepetition(t *testing.T) {
	c := checked(t, "VNF()->[Vertical()]{1,6}->Host(id=23245)")
	p := elems(t,
		"DNS", map[string]any{},
		"ComposedOf", map[string]any{},
		"Proxy", map[string]any{},
		"OnVM", map[string]any{},
		"VMWare", map[string]any{},
		"OnServer", map[string]any{},
		"ComputeHost", map[string]any{"id": int64(23245)},
	)
	if !c.MatchesPathway(p) {
		t.Fatal("vertical chain must match")
	}
	// Horizontal edge in the middle breaks the Vertical-only chain.
	p2 := elems(t,
		"DNS", map[string]any{},
		"ComposedOf", map[string]any{},
		"Proxy", map[string]any{},
		"VirtualLink", map[string]any{},
		"VMWare", map[string]any{},
		"OnServer", map[string]any{},
		"ComputeHost", map[string]any{"id": int64(23245)},
	)
	if c.MatchesPathway(p2) {
		t.Fatal("non-vertical edge must not satisfy Vertical()")
	}
}

func TestMatchesPathwayEdgeOnly(t *testing.T) {
	// A pure edge RPE matches with implicit endpoint nodes.
	c := checked(t, "PhysicalLink()")
	p := elems(t,
		"ComputeHost", map[string]any{},
		"PhysicalLink", map[string]any{},
		"TORSwitch", map[string]any{},
	)
	if !c.MatchesPathway(p) {
		t.Fatal("edge atom must match n,e,n' pathway (implicit endpoints)")
	}
	// A single node does not match an edge atom.
	if c.MatchesPathway(elems(t, "ComputeHost", map[string]any{})) {
		t.Fatal("single node matched edge atom")
	}
	// Chained edge atoms skip intermediate nodes.
	c2 := checked(t, "[PhysicalLink()]{2,2}")
	p2 := elems(t,
		"ComputeHost", map[string]any{},
		"PhysicalLink", map[string]any{},
		"TORSwitch", map[string]any{},
		"PhysicalLink", map[string]any{},
		"SpineSwitch", map[string]any{},
	)
	if !c2.MatchesPathway(p2) {
		t.Fatal("edge repetition must chain across implicit nodes")
	}
	// {2,2} must not match a single hop.
	if c2.MatchesPathway(p) {
		t.Fatal("{2,2} matched one hop")
	}
}

func TestMatchesPathwayWholePathOnly(t *testing.T) {
	// VM() must not match a longer pathway merely containing a VM.
	c := checked(t, "VM()")
	long := elems(t,
		"VMWare", map[string]any{},
		"OnServer", map[string]any{},
		"ComputeHost", map[string]any{},
	)
	if c.MatchesPathway(long) {
		t.Fatal("atom matched a strict superpath")
	}
	if !c.MatchesPathway(elems(t, "VMWare", map[string]any{})) {
		t.Fatal("atom failed on exact single-node pathway")
	}
}

func TestMatchesPathwayAlternation(t *testing.T) {
	c := checked(t, "(VM(id=55)|Docker(id=66))")
	if !c.MatchesPathway(elems(t, "VMWare", map[string]any{"id": int64(55)})) {
		t.Error("left alternative failed")
	}
	if !c.MatchesPathway(elems(t, "Docker", map[string]any{"id": int64(66)})) {
		t.Error("right alternative failed")
	}
	if c.MatchesPathway(elems(t, "VMWare", map[string]any{"id": int64(66)})) {
		t.Error("VM with Docker's id matched")
	}
}

func TestMatchesPathwayMixedNodeEdge(t *testing.T) {
	// Node atom followed directly by edge atom: adjacent, no skip.
	c := checked(t, "VM()->OnServer()->Host()")
	p := elems(t,
		"VMWare", map[string]any{},
		"OnServer", map[string]any{},
		"ComputeHost", map[string]any{},
	)
	if !c.MatchesPathway(p) {
		t.Fatal("node->edge->node adjacency failed")
	}
	// Wrong edge class.
	p[1] = elems(t, "VirtualLink", map[string]any{})[0]
	if c.MatchesPathway(p) {
		t.Fatal("wrong edge class matched")
	}
}

func TestAnchorUniqueEquality(t *testing.T) {
	c := checked(t, "VNF()->[Vertical()]{1,6}->Host(id=23245)")
	stats := &schema.Stats{ClassCount: map[string]int{"DNS": 30, "Firewall": 3, "ComputeHost": 500, "OnServer": 2000}}
	best, err := c.BestAnchor(stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Atoms) != 1 || best.Atoms[0].Class != "Host" {
		t.Fatalf("best anchor = %v, want Host(id=...)", best)
	}
	if best.Cost != 1 {
		t.Errorf("unique-equality anchor cost = %v, want 1", best.Cost)
	}
}

func TestAnchorAlternationUnion(t *testing.T) {
	// The paper's example: the alternation block containing two highly
	// specific atoms is selected as the anchor pair.
	c := checked(t, "VNF()->[HostedOn()]{1,3}->(VM(id=55)|Docker(id=66))->HostedOn(){1,2}->Host()")
	stats := &schema.Stats{ClassCount: map[string]int{
		"DNS": 1000, "VMWare": 100000, "Docker": 100000, "ComputeHost": 50000, "OnVM": 100000, "OnServer": 100000,
	}}
	best, err := c.BestAnchor(stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Atoms) != 2 {
		t.Fatalf("alternation anchor = %v, want the VM|Docker pair", best)
	}
	names := map[string]bool{}
	for _, a := range best.Atoms {
		names[a.Class] = true
	}
	if !names["VM"] || !names["Docker"] {
		t.Errorf("anchor atoms = %v", best)
	}
	if best.Cost != 2 {
		t.Errorf("pair cost = %v, want 2", best.Cost)
	}
}

func TestUnanchoredRejected(t *testing.T) {
	// §3.3: [VNF()]{0,4}->[Vertical()]{0,4} has no anchor because the empty
	// path satisfies it.
	c := checked(t, "[VNF()]{0,4}->[Vertical()]{0,4}")
	if _, err := c.BestAnchor(&schema.Stats{}); err == nil {
		t.Fatal("unanchored RPE accepted")
	}
	// With a bounded {1,n} block, the anchor exists.
	c2 := checked(t, "[VNF()]{1,4}->[Vertical()]{0,4}")
	best, err := c2.BestAnchor(&schema.Stats{})
	if err != nil {
		t.Fatalf("anchorable RPE rejected: %v", err)
	}
	if best.Atoms[0].Class != "VNF" {
		t.Errorf("anchor = %v", best)
	}
}

func TestOptionalRepetitionMatching(t *testing.T) {
	c := checked(t, "VNF()->[Vertical()]{0,2}->VFC()")
	// Zero vertical edges: VNF -> (absorbed edge) -> VFC.
	p := elems(t,
		"DNS", map[string]any{},
		"ComposedOf", map[string]any{},
		"Proxy", map[string]any{},
	)
	if !c.MatchesPathway(p) {
		t.Error("optional block with zero iterations failed")
	}
	// One vertical edge consumed explicitly also matches the same pathway.
	c1 := checked(t, "VNF()->[Vertical()]{1,2}->VFC()")
	if !c1.MatchesPathway(p) {
		t.Error("one-iteration match failed")
	}
}

func TestPredOperators(t *testing.T) {
	cases := []struct {
		src    string
		fields map[string]any
		want   bool
	}{
		{"VM(id>5)", map[string]any{"id": int64(6)}, true},
		{"VM(id>5)", map[string]any{"id": int64(5)}, false},
		{"VM(id>=5)", map[string]any{"id": int64(5)}, true},
		{"VM(id<5)", map[string]any{"id": int64(4)}, true},
		{"VM(id<=5)", map[string]any{"id": 5.0}, true},
		{"VM(id!=5)", map[string]any{"id": int64(7)}, true},
		{"VM(id!=5)", map[string]any{"id": int64(5)}, false},
		{"VM(status=~'gr*')", map[string]any{"status": "green"}, true},
		{"VM(status=~'*een')", map[string]any{"status": "green"}, true},
		{"VM(status=~'*re*')", map[string]any{"status": "green"}, true},
		{"VM(status=~'gr*')", map[string]any{"status": "red"}, false},
		{"VM(id IN (1, 2, 3))", map[string]any{"id": int64(2)}, true},
		{"VM(id IN (1, 2, 3))", map[string]any{"id": int64(9)}, false},
		{"VM(id=5, status='Green')", map[string]any{"id": int64(5), "status": "Green"}, true},
		{"VM(id=5, status='Green')", map[string]any{"id": int64(5), "status": "Red"}, false},
		// Two integers compare exactly: 2^53 and 2^53+1 are one float64.
		{"VM(id>9007199254740992)", map[string]any{"id": int64(1<<53 + 1)}, true},
		{"VM(id=9007199254740992)", map[string]any{"id": int64(1<<53 + 1)}, false},
		{"VM(id!=9007199254740992)", map[string]any{"id": int64(1<<53 + 1)}, true},
		{"VM(id IN (9007199254740992))", map[string]any{"id": int64(1<<53 + 1)}, false},
	}
	vmware := testSchema.MustClass("VMWare")
	for _, cse := range cases {
		c := checked(t, cse.src)
		got := c.Satisfies(c.Atoms()[0], vmware, vmware.NewRecord(cse.fields, nil))
		if got != cse.want {
			t.Errorf("%s on %v = %v, want %v", cse.src, cse.fields, got, cse.want)
		}
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a*c", "abbbc", true},
		{"a*c", "ac", true},
		{"a*c", "acx", false},
		{"*", "anything", true},
		{"a*b*c", "axxbyyc", true},
		{"a*b*c", "axxcyyb", false},
	}
	for _, c := range cases {
		if globMatch(c.pat, c.s) != c.want {
			t.Errorf("globMatch(%q, %q) != %v", c.pat, c.s, c.want)
		}
	}
}

func TestAtomCostHints(t *testing.T) {
	c := checked(t, "VM(status='Green')")
	atom := c.Atoms()[0]
	cls := c.ClassOf(atom)
	// No stats, no hint: default large cardinality discounted by equality.
	cost := AtomCost(atom, cls, &schema.Stats{})
	if cost != defaultCardinality/10 {
		t.Errorf("default cost = %v", cost)
	}
	// Stats present: subtree count drives the estimate.
	stats := &schema.Stats{ClassCount: map[string]int{"VMWare": 700, "OnMetal": 300}}
	if got := AtomCost(atom, cls, stats); got != 100 {
		t.Errorf("stat cost = %v, want 100", got)
	}
}

func TestCheckRejectsPredOnMissingExpr(t *testing.T) {
	if _, err := CheckString("", testSchema); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := Check(&Sequence{Parts: []Expr{}}, testSchema); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestStringsContainClassNames(t *testing.T) {
	c := checked(t, "VNF()->[Vertical()]{1,6}->Host(id=23245)")
	s := c.Expr.String()
	for _, want := range []string{"VNF()", "Vertical()", "Host(id=23245)"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed expr %q missing %q", s, want)
		}
	}
}

func TestOptionalBlocksDontSkipAlone(t *testing.T) {
	// Regression: the concatenation skip exists BETWEEN two matched parts.
	// With both sides empty, [A]{0,1}->[B]{0,1} must not match an
	// arbitrary single element via the stray bridge skip.
	c := checked(t, "[OnServer()]{0,1}->[OnVM()]{0,1}")
	if c.MatchesPathway(elems(t, "ComputeHost", map[string]any{})) {
		t.Error("single node matched an all-optional RPE")
	}
	phys := elems(t,
		"TORSwitch", map[string]any{},
		"PhysicalLink", map[string]any{},
		"ComputeHost", map[string]any{},
	)
	if c.MatchesPathway(phys) {
		t.Error("unrelated edge matched via bridge skip between empty parts")
	}
	// The legitimate cases still match: either single block alone...
	onServer := elems(t,
		"VMWare", map[string]any{},
		"OnServer", map[string]any{},
		"ComputeHost", map[string]any{},
	)
	if !c.MatchesPathway(onServer) {
		t.Error("single OnServer hop must match")
	}
	// ...and both blocks with the implicit node skipped between them.
	both := elems(t,
		"Proxy", map[string]any{},
		"OnVM", map[string]any{},
		"VMWare", map[string]any{},
		"OnServer", map[string]any{},
		"ComputeHost", map[string]any{},
	)
	c2 := checked(t, "[OnVM()]{0,1}->[OnServer()]{0,1}")
	if !c2.MatchesPathway(both) {
		t.Error("both-blocks case must match with the inter-block skip")
	}
}

// TestCheckBoundsUnrolledAutomaton: repetitions are unrolled and every
// state caches a closure set over all states, so an expression whose
// automaton would pass maxStates is rejected before anything is built —
// `{1,77776}` used to ask for gigabytes of closure sets. The count the
// bound is checked against is exactly the number of states built.
func TestCheckBoundsUnrolledAutomaton(t *testing.T) {
	for _, src := range []string{
		"VNF()->[Vertical()]{1,6}->Host(id=23245)",
		"Host(id=1)->[PhysicalLink()]{1,6}->Host(id=2)",
		"VNF(id=1)->[ComposedOf()|Vertical()]{0,4}->[VFC()]{0,2}->Host()",
		"[[VNF(id=1)->Vertical()]{1,8}]{1,8}->Host()",
	} {
		c := checked(t, src)
		if got := unrolledStates(expandEmptyReps(c.Expr)); got != c.nfa.NumStates {
			t.Errorf("%s: counted %d states, built %d", src, got, c.nfa.NumStates)
		}
	}
	for _, src := range []string{
		"VNF()->[Vertical()]{1,77776}->Host(id=23245)",
		"VNF(id=1)->[[[Vertical()]{1,20}]{1,20}]{1,20}->Host()",
		"VNF(id=1)->[Vertical()]{1,9223372036854775807}",
	} {
		if _, err := CheckString(src, testSchema); err == nil || !strings.Contains(err.Error(), "automaton states") {
			t.Errorf("%s: err = %v, want the automaton-size rejection", src, err)
		}
	}
}
