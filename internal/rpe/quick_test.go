package rpe

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// exprGen builds random well-formed expressions over the netmodel schema
// for property tests.
type exprGen struct{ r *rand.Rand }

func (g exprGen) atom() Expr {
	classes := []string{"VM", "Host", "VNF", "VFC", "Container", "OnServer", "Vertical", "PhysicalLink"}
	a := &Atom{Class: classes[g.r.Intn(len(classes))], id: -1}
	switch g.r.Intn(4) {
	case 0:
		a.Preds = append(a.Preds, FieldPred{Field: "id", Op: OpEq, Value: int64(g.r.Intn(100))})
	case 1:
		a.Preds = append(a.Preds, FieldPred{Field: "name", Op: OpMatch, Value: "vm-*"})
	case 2:
		a.Preds = append(a.Preds, FieldPred{Field: "id", Op: OpIn, List: []any{int64(1), int64(2)}})
	}
	return a
}

func (g exprGen) expr(depth int) Expr {
	if depth <= 0 {
		return g.atom()
	}
	switch g.r.Intn(4) {
	case 0:
		n := 2 + g.r.Intn(2)
		parts := make([]Expr, n)
		for i := range parts {
			parts[i] = g.expr(depth - 1)
		}
		return &Sequence{Parts: parts}
	case 1:
		n := 2 + g.r.Intn(2)
		alts := make([]Expr, n)
		for i := range alts {
			alts[i] = g.expr(depth - 1)
		}
		return &Alternation{Alts: alts}
	case 2:
		min := g.r.Intn(2) // 0 or 1
		max := min + 1 + g.r.Intn(3)
		if min == 0 && max == 0 {
			max = 1
		}
		return &Repetition{Body: g.expr(depth - 1), Min: min, Max: max}
	}
	return g.atom()
}

// genExpr adapts exprGen to testing/quick.
type genExpr struct{ E Expr }

func (genExpr) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genExpr{E: exprGen{r: r}.expr(2 + r.Intn(2))})
}

func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(g genExpr) bool {
		printed := g.E.String()
		reparsed, err := Parse(printed)
		if err != nil {
			t.Logf("parse of %q failed: %v", printed, err)
			return false
		}
		// Printing is canonical up to normalization.
		return Normalize(reparsed).String() == Normalize(g.E).String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeIdempotentOnRandomExprs(t *testing.T) {
	f := func(g genExpr) bool {
		n1 := Normalize(g.E)
		n2 := Normalize(n1)
		return n1.String() == n2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickLenBoundsConsistent(t *testing.T) {
	f := func(g genExpr) bool {
		n := Normalize(g.E)
		return n.MinLen() <= n.MaxLen() && n.MinLen() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCheckAndAnchorsNeverPanic(t *testing.T) {
	// Every random expression either checks cleanly (and then anchor
	// finding terminates with a result or a clean unanchored error) or is
	// rejected with an error — never a panic.
	f := func(g genExpr) bool {
		c, err := Check(g.E.clone(), testSchema)
		if err != nil {
			return true
		}
		_, _ = c.BestAnchor(nil)
		_ = c.FirstAtoms()
		_ = c.LastAtoms()
		_, _ = c.SourceClass()
		_, _ = c.TargetClass()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickNormalizePreservesMatching: the normalized expression accepts
// exactly the same pathways as the original (checked on random small
// element sequences).
func TestQuickNormalizePreservesMatching(t *testing.T) {
	classes := []string{"VMWare", "OnServer", "ComputeHost", "DNS", "ComposedOf", "Proxy", "OnVM"}
	f := func(g genExpr, seed int64) bool {
		orig, err1 := Check(g.E.clone(), testSchema)
		norm, err2 := Check(Normalize(g.E.clone()), testSchema)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 10; trial++ {
			// Random alternating pathway of 1..4 nodes.
			n := 1 + r.Intn(4)
			var elems []Element
			for i := 0; i < n; i++ {
				if i > 0 {
					elems = append(elems, randomElem(r, classes, true))
				}
				elems = append(elems, randomElem(r, classes, false))
			}
			if orig.MatchesPathway(elems) != norm.MatchesPathway(elems) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func randomElem(r *rand.Rand, classes []string, edge bool) Element {
	for {
		name := classes[r.Intn(len(classes))]
		cls := testSchema.MustClass(name)
		if cls.IsEdge() != edge {
			continue
		}
		return Element{Class: cls, Rec: cls.NewRecord(map[string]any{
			"id":   int64(r.Intn(100)),
			"name": "vm-" + string(rune('a'+r.Intn(3))),
		}, nil)}
	}
}
