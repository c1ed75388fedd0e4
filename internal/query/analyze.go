package query

import (
	"fmt"

	"repro/internal/rpe"
	"repro/internal/schema"
)

// Analyzed is a semantically checked query: every range variable is bound
// to its checked MATCHES expression, every term is resolved, and field
// projections are type-checked against the least-common-ancestor class of
// the pathway endpoint they project (§3.4).
type Analyzed struct {
	Query   *Query
	Schema  *schema.Schema
	Checked map[string]*rpe.Checked
	// ViewChecked holds, per variable ranging over a named view, the
	// view's checked RPE — an additional constraint the variable's
	// pathways must satisfy (with validity intersection semantics).
	ViewChecked map[string]*rpe.Checked
	// Subqueries holds the analyzed form of each NOT EXISTS subquery, in
	// predicate order.
	Subqueries []*Analyzed
	// Outer is the enclosing query for correlated subqueries.
	Outer *Analyzed
}

// Views maps user-defined pathway view names to their defining RPEs,
// checked once when the view is defined (§3.4: "the view PATHS is the set
// of all pathways. Additional views can be defined"). A variable ranging
// over a view gets the view's RPE as an implicit MATCHES predicate.
// Analysis shares a view's checked form, read-only, with every statement
// over it.
type Views map[string]*rpe.Checked

// Analyze validates q against the schema. Rules enforced:
//   - every range variable has exactly one MATCHES predicate (§3.4);
//   - every term references a declared variable (or, in a subquery, an
//     outer variable — correlation);
//   - Retrieve projects bare pathway variables; Select may post-process
//     with source/target/len and typed field access;
//   - field accesses exist on the endpoint's LCA class.
func Analyze(q *Query, sch *schema.Schema) (*Analyzed, error) {
	return analyze(q, sch, nil, nil)
}

// AnalyzeWithViews analyzes q with user-defined pathway views in scope.
func AnalyzeWithViews(q *Query, sch *schema.Schema, views Views) (*Analyzed, error) {
	return analyze(q, sch, nil, views)
}

func analyze(q *Query, sch *schema.Schema, outer *Analyzed, views Views) (*Analyzed, error) {
	a := &Analyzed{Query: q, Schema: sch,
		Checked:     make(map[string]*rpe.Checked),
		ViewChecked: make(map[string]*rpe.Checked),
		Outer:       outer}

	seen := make(map[string]bool)
	for i := range q.Vars {
		rv := &q.Vars[i]
		if seen[rv.Name] {
			return nil, fmt.Errorf("query: variable %q declared twice", rv.Name)
		}
		seen[rv.Name] = true
		if rv.Source != "" && rv.Source != BaseView {
			checked, ok := views[rv.Source]
			if !ok {
				return nil, fmt.Errorf("query: variable %q ranges over unknown view %q", rv.Name, rv.Source)
			}
			rv.ViewMatch = checked.Expr
			a.ViewChecked[rv.Name] = checked
		}
	}

	for _, p := range q.Preds {
		mp, ok := p.(*MatchPred)
		if !ok {
			continue
		}
		rv, declared := q.Var(mp.Var)
		if !declared {
			return nil, fmt.Errorf("query: MATCHES references undeclared variable %q", mp.Var)
		}
		if rv.Match != nil {
			return nil, fmt.Errorf("query: variable %q has more than one MATCHES predicate", mp.Var)
		}
		rv.Match = mp.Expr
		checked, err := rpe.Check(mp.Expr, sch)
		if err != nil {
			return nil, fmt.Errorf("query: in %s MATCHES: %w", mp.Var, err)
		}
		a.Checked[mp.Var] = checked
	}
	for i := range q.Vars {
		rv := &q.Vars[i]
		if rv.Match != nil {
			continue
		}
		// A named-view source supplies the implicit MATCHES predicate.
		if rv.ViewMatch != nil {
			rv.Match = rv.ViewMatch
			a.Checked[rv.Name] = a.ViewChecked[rv.Name]
			delete(a.ViewChecked, rv.Name) // no extra filtering needed
			continue
		}
		return nil, fmt.Errorf("query: variable %q has no MATCHES predicate", rv.Name)
	}

	hasCount := false
	for _, t := range q.Projs {
		if err := a.checkTerm(t, true); err != nil {
			return nil, err
		}
		if q.Verb == Retrieve && t.Fn != FnNone {
			return nil, fmt.Errorf("query: Retrieve returns pathways; use Select for %s", t)
		}
		if t.Fn == FnCount {
			hasCount = true
		}
	}
	if hasCount {
		// Pathway-set aggregation: count(P) collapses the result to one
		// row, so it cannot mix with per-row projections.
		for _, t := range q.Projs {
			if t.Fn != FnCount {
				return nil, fmt.Errorf("query: count(...) cannot mix with per-pathway projection %s", t)
			}
		}
	}

	for _, p := range q.Preds {
		switch pred := p.(type) {
		case *JoinPred:
			for _, t := range []Term{pred.Left, pred.Right} {
				if err := a.checkTerm(t, false); err != nil {
					return nil, err
				}
				if t.Fn == FnNone || t.Fn == FnCount {
					return nil, fmt.Errorf("query: join predicates compare source()/target()/len() terms, not %q", t)
				}
			}
		case *NotExistsPred:
			sub, err := analyze(pred.Sub, sch, a, views)
			if err != nil {
				return nil, err
			}
			a.Subqueries = append(a.Subqueries, sub)
		}
	}
	return a, nil
}

// checkTerm resolves the term's variable, walking outer scopes, and
// type-checks any field access. Projections must bind in the local scope.
func (a *Analyzed) checkTerm(t Term, localOnly bool) error {
	owner := a.resolve(t.Var, localOnly)
	if owner == nil {
		return fmt.Errorf("query: term %s references undeclared variable %q", t, t.Var)
	}
	if t.Field == "" {
		return nil
	}
	checked := owner.Checked[t.Var]
	var cls *schema.Class
	var err error
	if t.Fn == FnTarget {
		cls, err = checked.TargetClass()
	} else {
		cls, err = checked.SourceClass()
	}
	if err != nil {
		return err
	}
	if _, err := a.Schema.FieldOn(cls.Name, t.Field); err != nil {
		return fmt.Errorf("query: %s: %w (endpoint class is %s)", t, err, cls.Name)
	}
	return nil
}

// resolve finds the analyzed scope declaring the variable.
func (a *Analyzed) resolve(name string, localOnly bool) *Analyzed {
	if _, ok := a.Query.Var(name); ok {
		return a
	}
	if localOnly {
		return nil
	}
	if a.Outer != nil {
		return a.Outer.resolve(name, false)
	}
	return nil
}

// IsOuterRef reports whether the variable is declared in an enclosing
// query rather than locally (a correlated reference).
func (a *Analyzed) IsOuterRef(name string) bool {
	if _, ok := a.Query.Var(name); ok {
		return false
	}
	return a.Outer != nil && a.Outer.resolve(name, false) != nil
}
