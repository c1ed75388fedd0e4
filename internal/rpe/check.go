package rpe

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/schema"
)

// Checked is a normalized, schema-validated RPE ready for planning. It
// binds every atom occurrence to its schema class and compiled predicate,
// and carries the NFA the backends execute.
type Checked struct {
	Expr   Expr
	Schema *schema.Schema

	atoms   []*Atom
	classes []*schema.Class // indexed by atom id
	preds   []CompiledPred  // indexed by atom id; nil = always true
	nfa     *NFA
	feas    []kindMask // per-transition kind feasibility
	goals   *goals     // goal-directed halves (goal.go); nil: none

	strOnce  sync.Once // guards the rendering cache below
	exprStr  string
	atomStrs []string // indexed by atom id
}

// Check normalizes e, validates it against sch, assigns atom occurrence
// ids, compiles predicates, and builds the NFA. It enforces Nepal's
// strong-typing rules: atom classes must exist, predicate fields must be
// declared on the named class (subclass fields are invisible through a
// parent atom), and predicate values must fit the field types.
func Check(e Expr, sch *schema.Schema) (*Checked, error) {
	norm := Normalize(e)
	c := &Checked{Expr: norm, Schema: sch}
	var firstErr error
	Walk(norm, func(x Expr) {
		if firstErr != nil {
			return
		}
		a, ok := x.(*Atom)
		if !ok {
			return
		}
		cls, found := sch.Class(schema.ShortName(a.Class))
		if !found {
			firstErr = fmt.Errorf("rpe: unknown class %q", a.Class)
			return
		}
		pred, err := compilePreds(sch, cls, a.Preds)
		if err != nil {
			firstErr = err
			return
		}
		a.id = len(c.atoms)
		c.atoms = append(c.atoms, a)
		c.classes = append(c.classes, cls)
		c.preds = append(c.preds, pred)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if len(c.atoms) == 0 {
		return nil, fmt.Errorf("rpe: expression has no atoms")
	}
	nfa, err := buildNFA(norm)
	if err != nil {
		return nil, err
	}
	c.nfa = nfa
	c.feas = c.nfa.transFeasibility(func(a *Atom) bool { return c.classes[a.id].IsEdge() })
	c.goals = analyzeGoals(c)
	return c, nil
}

// CheckString parses and checks in one step.
func CheckString(src string, sch *schema.Schema) (*Checked, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Check(e, sch)
}

// compilePreds validates an atom's predicates against the fields of cls —
// each field declared, each literal fitting the field's type — and
// compiles their conjunction.
func compilePreds(sch *schema.Schema, cls *schema.Class, preds []FieldPred) (CompiledPred, error) {
	for _, p := range preds {
		leafType, err := resolvePredType(sch, cls.Name, p.Field)
		if err != nil {
			return nil, err
		}
		if err := checkPredValue(cls.Name, p.Field, leafType, p); err != nil {
			return nil, err
		}
	}
	return compileAll(preds, cls)
}

// resolvePredType resolves a (possibly dotted) predicate field path to
// the leaf type it compares against.
func resolvePredType(sch *schema.Schema, class, field string) (schema.Type, error) {
	if !strings.ContainsRune(field, '.') {
		f, err := sch.FieldOn(class, field)
		if err != nil {
			return nil, err
		}
		return f.Type, nil
	}
	return sch.ResolveFieldPath(class, field)
}

// checkPredValue verifies a predicate literal is compatible with the
// declared leaf type (strong typing extends into atom predicates,
// including structured-data paths).
func checkPredValue(class, field string, leafType schema.Type, p FieldPred) error {
	vals := p.List
	if p.Op != OpIn {
		vals = []any{p.Value}
	}
	// Comparisons against a container-typed leaf compare element-wise.
	for {
		c, ok := leafType.(schema.Container)
		if !ok {
			break
		}
		leafType = c.Elem
	}
	for _, v := range vals {
		if p.Op == OpMatch {
			if _, ok := v.(string); !ok {
				return fmt.Errorf("rpe: %s.%s =~ requires a string pattern", class, field)
			}
			continue // pattern strings need not be valid field values
		}
		if err := leafType.Validate(v); err != nil {
			return fmt.Errorf("rpe: predicate on %s.%s: %w", class, field, err)
		}
	}
	return nil
}

// Atoms returns the atom occurrences in id order.
func (c *Checked) Atoms() []*Atom { return c.atoms }

// Rendered returns the cached string renderings of the expression and of
// every atom (indexed by atom id). Expression rendering is recursive;
// traced evaluations label their operator spans with these strings on
// every query, so the cache makes the cost once per compiled expression
// instead of once per evaluation. Safe for concurrent use.
func (c *Checked) Rendered() (expr string, atoms []string) {
	c.strOnce.Do(func() {
		c.exprStr = c.Expr.String()
		c.atomStrs = make([]string, len(c.atoms))
		for _, a := range c.atoms {
			if a.id >= 0 && a.id < len(c.atomStrs) {
				c.atomStrs[a.id] = a.String()
			}
		}
	})
	return c.exprStr, c.atomStrs
}

// ClassOf returns the schema class bound to the atom occurrence.
func (c *Checked) ClassOf(a *Atom) *schema.Class { return c.classes[a.id] }

// NFA returns the compiled automaton.
func (c *Checked) NFA() *NFA { return c.nfa }

// MaxLen returns the maximum number of pathway elements a match consumes.
func (c *Checked) MaxLen() int { return c.Expr.MaxLen() }

// MinLen returns the minimum number of pathway elements a match consumes.
func (c *Checked) MinLen() int { return c.Expr.MinLen() }

// Satisfies reports whether an element of class cls holding the record
// rec satisfies the atom occurrence: the element's class must be the
// atom's class or a transitive subclass, and the predicates must hold.
func (c *Checked) Satisfies(a *Atom, cls *schema.Class, rec schema.Record) bool {
	if !cls.IsSubclassOf(c.classes[a.id]) {
		return false
	}
	if p := c.preds[a.id]; p != nil {
		return p(rec)
	}
	return true
}

// Normalize rewrites the expression into the canonical block form:
// nested sequences and alternations are flattened, single-part wrappers
// unwrapped, {1,1} repetitions dissolved, and {0,n} repetitions inside a
// sequence expanded so that downstream anchor analysis and NFA
// construction only see min >= 1 repetitions or explicit alternatives.
func Normalize(e Expr) Expr {
	switch x := e.(type) {
	case *Atom:
		return x
	case *Sequence:
		var parts []Expr
		for _, p := range x.Parts {
			np := Normalize(p)
			if sub, ok := np.(*Sequence); ok {
				parts = append(parts, sub.Parts...)
				continue
			}
			parts = append(parts, np)
		}
		if len(parts) == 1 {
			return parts[0]
		}
		return &Sequence{Parts: parts}
	case *Alternation:
		var alts []Expr
		for _, p := range x.Alts {
			np := Normalize(p)
			if sub, ok := np.(*Alternation); ok {
				alts = append(alts, sub.Alts...)
				continue
			}
			alts = append(alts, np)
		}
		if len(alts) == 1 {
			return alts[0]
		}
		return &Alternation{Alts: alts}
	case *Repetition:
		body := Normalize(x.Body)
		if x.Min == 1 && x.Max == 1 {
			return body
		}
		return &Repetition{Body: body, Min: x.Min, Max: x.Max}
	}
	return e
}

// FirstAtoms returns the atom occurrences that can consume the first
// element of a match: the labels of consuming transitions leaving the
// start state's epsilon closure.
func (c *Checked) FirstAtoms() []*Atom {
	return c.boundaryAtoms(c.nfa.Closure(c.nfa.Start), c.nfa.OutTrans)
}

// LastAtoms returns the atom occurrences that can consume the final
// element of a match.
func (c *Checked) LastAtoms() []*Atom {
	return c.boundaryAtoms(c.nfa.ClosureRev(c.nfa.Accept), c.nfa.InTrans)
}

// boundaryAtoms returns, once each, the atoms labeling the transitions
// trans lists for the states in states.
func (c *Checked) boundaryAtoms(states StateSet, trans func(int) []int) []*Atom {
	var atoms []*Atom
	states.ForEach(func(s int) {
		for _, ti := range trans(s) {
			if a := c.nfa.Trans[ti].Atom; a != nil && !containsAtom(atoms, a) {
				atoms = append(atoms, a)
			}
		}
	})
	return atoms
}

// SourceClass returns the least common ancestor of the node classes a
// match's source node can have (§3.4: "the class of source(P) / target(P)
// is the least common ancestor of all classes that an analysis of P's
// MATCHES expression indicates"). An RPE that can begin with an edge atom
// has an implicit source node, so its source class is the Node root.
func (c *Checked) SourceClass() (*schema.Class, error) {
	return c.endpointClass(c.FirstAtoms())
}

// TargetClass is SourceClass for the match's final node.
func (c *Checked) TargetClass() (*schema.Class, error) {
	return c.endpointClass(c.LastAtoms())
}

func (c *Checked) endpointClass(atoms []*Atom) (*schema.Class, error) {
	node, _ := c.Schema.Class(schema.NodeRoot)
	classes := make([]*schema.Class, 0, len(atoms))
	for _, a := range atoms {
		cls := c.ClassOf(a)
		if cls.IsEdge() {
			// Implicit endpoint node: could be any node.
			return node, nil
		}
		classes = append(classes, cls)
	}
	if len(classes) == 0 {
		return node, nil
	}
	return schema.LCAAll(classes)
}
