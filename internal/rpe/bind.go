package rpe

import "slices"

// Arg is one predicate literal to bind into a checked expression: the
// value of predicate Pred of the atom with id Atom, or of item Item of
// its IN list (Item -1 for a single-valued predicate).
type Arg struct {
	Atom, Pred, Item int
	Value            any
}

// Bind returns what Check returns for c's expression spelled with the
// literals args, in atom, predicate and item order: each atom an argument
// names is copied with its predicates validated (as Check validates them,
// so with the same error) and compiled anew, and the expression is copied
// above those atoms. The automaton, feasibility masks, goal analysis, classes
// and atom ids are shared with c, which is not modified. The automaton's
// transitions still label c's atoms: a caller reaching an atom through
// NFA().Trans reads its class and predicate by id (ClassOf, Satisfies),
// never through the atom's own Preds.
func (c *Checked) Bind(args []Arg) (*Checked, error) {
	if len(args) == 0 {
		return c, nil
	}
	b := &Checked{Schema: c.Schema, atoms: slices.Clone(c.atoms), classes: c.classes,
		preds: slices.Clone(c.preds), nfa: c.nfa, feas: c.feas, goals: c.goals}
	for i := 0; i < len(args); {
		id := args[i].Atom
		a := &Atom{Class: c.atoms[id].Class, Preds: slices.Clone(c.atoms[id].Preds), id: id}
		for k := range a.Preds {
			a.Preds[k].List = slices.Clone(a.Preds[k].List)
		}
		for ; i < len(args) && args[i].Atom == id; i++ {
			if p := &a.Preds[args[i].Pred]; args[i].Item < 0 {
				p.Value = args[i].Value
			} else {
				p.List[args[i].Item] = args[i].Value
			}
		}
		pred, err := compilePreds(c.Schema, c.classes[id], a.Preds)
		if err != nil {
			return nil, err
		}
		b.atoms[id], b.preds[id] = a, pred
	}
	b.Expr = rebind(c.Expr, b.atoms)
	return b, nil
}

// rebind returns e with each atom replaced by the atom of its id in
// atoms, copying only the nodes above a replaced atom.
func rebind(e Expr, atoms []*Atom) Expr {
	switch x := e.(type) {
	case *Atom:
		return atoms[x.id]
	case *Sequence:
		if parts, ok := rebindAll(x.Parts, atoms); ok {
			return &Sequence{Parts: parts}
		}
	case *Alternation:
		if alts, ok := rebindAll(x.Alts, atoms); ok {
			return &Alternation{Alts: alts}
		}
	case *Repetition:
		if body := rebind(x.Body, atoms); body != x.Body {
			return &Repetition{Body: body, Min: x.Min, Max: x.Max}
		}
	}
	return e
}

// rebindAll rebinds each of es, returning a new slice and true when any
// of them changed.
func rebindAll(es []Expr, atoms []*Atom) ([]Expr, bool) {
	var out []Expr
	for i, e := range es {
		if ne := rebind(e, atoms); ne != e {
			if out == nil {
				out = slices.Clone(es)
			}
			out[i] = ne
		}
	}
	return out, out != nil
}
