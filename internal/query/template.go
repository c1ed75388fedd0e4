package query

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/rpe"
	"repro/internal/temporal"
)

// Template is an analyzed statement whose literals are parameters: the
// compiled form of every statement of its shape (AppendShape). Bind gives
// the statement of that shape spelled with other literals — what parsing
// and analyzing it would give — by re-binding only the value-dependent
// parts, each atom's compiled predicates and each AT or @ window, and
// sharing the rest of the analysis with the template (PostgreSQL's
// generic plan). A Template is immutable and safe for concurrent Binds.
type Template struct {
	top   *level
	sites []site // one per parameter, in statement order
}

// site is one parameter: its token and how its literal becomes a value.
type site struct {
	tok    int
	neg    bool // a '-' precedes the number
	isTime bool
	// rangeStart is, for the end of the query's AT range, the site of its
	// start, since the parser requires the range to run forward; else -1.
	rangeStart int
}

// level is one query level of the template — the statement or a NOT
// EXISTS subquery — with what its parameters bind.
type level struct {
	a      *Analyzed
	times  []timeSite
	vars   []varSite
	subs   []*level // one per a.Subqueries
	params bool     // a parameter binds into this level or below
}

// timeSite is the AT clause (v = -1) or variable v's @ binding: the sites
// of its start and, for a range, its end (else -1).
type timeSite struct{ v, start, end int }

// varSite is the predicate literals of one MATCHES expression: the
// rpe.Arg each binds (Value unset) and its site.
type varSite struct {
	name  string
	args  []rpe.Arg
	sites []int
}

// isParam reports whether t is a parameter — a string or number literal
// outside repetition bounds: a predicate value, an IN-list item, an AT or
// @ timestamp. bounds carries the brace nesting from token to token.
func isParam(t rpe.Token, bounds *int) bool {
	switch t.Kind {
	case rpe.KindLBrace:
		*bounds++
	case rpe.KindRBrace:
		*bounds--
	case rpe.KindString, rpe.KindInt, rpe.KindFloat:
		return *bounds == 0
	}
	return false
}

// AppendShape appends the shape of the statement toks lexes to dst: each
// token's kind and, except for a parameter, its text. The bounds {n,m}
// size the automaton, so they belong to the shape.
func AppendShape(dst []byte, toks []rpe.Token) []byte {
	bounds := 0
	for _, t := range toks {
		dst = append(dst, byte(t.Kind))
		if !isParam(t, &bounds) {
			dst = append(append(dst, t.Text...), 0)
		}
	}
	return dst
}

// Fingerprint returns the identity under which the statement toks lexes
// aggregates in the statistics: its normalized text and the 64-bit
// FNV-1a hash of that text as 16 lowercase hex characters. The text is
// the statement's shape (AppendShape) spelled out: every token as
// written, a parameter as "?" and a keyword in upper case, one space
// apart. Statements that differ only in literals, spacing or keyword
// case share a digest; any other difference, repetition bounds included,
// gives another. Keyword case stays out of the shape itself: a field
// named like a keyword would bind to the template of a statement that
// means something else.
func Fingerprint(toks []rpe.Token) (digest, normalized string) {
	n := 0
	for _, t := range toks {
		n += max(len(t.Text), 1) + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	bounds := 0
	for _, t := range toks {
		if t.Kind == rpe.KindEOF {
			break
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		if isParam(t, &bounds) {
			sb.WriteByte('?')
			continue
		}
		if t.Kind == rpe.KindIdent {
			if kw, ok := rpe.Keyword(t.Text); ok {
				sb.WriteString(kw)
				continue
			}
		}
		sb.WriteString(t.Text)
	}
	normalized = sb.String()
	sum := uint64(14695981039346656037)
	for i := 0; i < len(normalized); i++ {
		sum = (sum ^ uint64(normalized[i])) * 1099511628211
	}
	const hexdigits = "0123456789abcdef"
	var hex [16]byte
	for i := 15; i >= 0; i-- {
		hex[i] = hexdigits[sum&0xf]
		sum >>= 4
	}
	return string(hex[:]), normalized
}

// NewTemplate makes the analyzed statement a, parsed from toks, the
// template of its shape: it pairs the parameters, in statement order,
// with the places of the analysis their values went to.
func NewTemplate(a *Analyzed, toks []rpe.Token) (*Template, error) {
	t := &Template{}
	bounds := 0
	for i, tk := range toks {
		if isParam(tk, &bounds) {
			neg := i > 0 && toks[i-1].Kind == rpe.KindMinus
			t.sites = append(t.sites, site{tok: i, neg: neg, rangeStart: -1})
		}
	}
	n := 0
	t.top = t.level(a, &n)
	if n != len(t.sites) {
		return nil, fmt.Errorf("query: internal: %d literals, %d values in the parse", len(t.sites), n)
	}
	return t, nil
}

// level pairs one query level's parameters in statement order — the AT
// clause, the variables' @ bindings, then the Where clause's MATCHES
// expressions and subqueries — counting them in *n.
func (t *Template) level(a *Analyzed, n *int) *level {
	l := &level{a: a}
	next := func() int { // the next parameter's site, or -1 past the last
		*n++
		if *n > len(t.sites) {
			return -1
		}
		return *n - 1
	}
	at := func(v int, ts *TimeSpec) {
		if ts == nil {
			return
		}
		s := timeSite{v: v, start: next(), end: -1}
		if ts.IsRange {
			s.end = next()
		}
		for _, i := range []int{s.start, s.end} {
			if i >= 0 {
				t.sites[i].isTime = true
			}
		}
		if v < 0 && s.start >= 0 && s.end >= 0 {
			t.sites[s.end].rangeStart = s.start
		}
		l.times = append(l.times, s)
	}
	at(-1, a.Query.At)
	for i := range a.Query.Vars {
		at(i, a.Query.Vars[i].At)
	}
	for _, p := range a.Query.Preds {
		switch p := p.(type) {
		case *MatchPred:
			vs := varSite{name: p.Var}
			add := func(atom, pred, item int, v any) {
				if _, ok := v.(bool); !ok { // true and false are keywords
					vs.args = append(vs.args, rpe.Arg{Atom: atom, Pred: pred, Item: item})
					vs.sites = append(vs.sites, next())
				}
			}
			rpe.Walk(p.Expr, func(e rpe.Expr) {
				if atom, ok := e.(*rpe.Atom); ok {
					for k, fp := range atom.Preds {
						if fp.Op != rpe.OpIn {
							add(atom.ID(), k, -1, fp.Value)
						}
						for j, v := range fp.List {
							add(atom.ID(), k, j, v)
						}
					}
				}
			})
			if len(vs.args) > 0 {
				l.vars = append(l.vars, vs)
			}
		case *NotExistsPred:
			sub := t.level(a.Subqueries[len(l.subs)], n)
			l.subs = append(l.subs, sub)
			l.params = l.params || sub.params
		}
	}
	l.params = l.params || len(l.times) > 0 || len(l.vars) > 0
	return l
}

// Bind returns the analysis of src, a statement of the template's shape
// lexed into toks, by binding its parameters into the template. It runs
// every value check that parsing and analysis run, in their order —
// number range, timestamp syntax, the AT range's order, then each
// predicate value against its field's type — so a statement that would
// not compile fails here with the same error.
func (t *Template) Bind(src string, toks []rpe.Token) (*Analyzed, error) {
	if len(t.sites) == 0 {
		return t.top.a, nil
	}
	vals := make([]any, len(t.sites))
	for i, s := range t.sites {
		tk := toks[s.tok]
		var v any
		var err error
		if s.isTime {
			if v, err = temporal.Parse(tk.Text); err != nil {
				err = fmt.Errorf("query: %w", err)
			}
		} else {
			// A number out of range is reported where the parser reports
			// it: at the token after it.
			v, err = rpe.LiteralValue(tk, s.neg, int(toks[s.tok+1].Pos), src)
		}
		if err == nil && s.rangeStart >= 0 {
			err = checkRange(vals[s.rangeStart].(time.Time), v.(time.Time))
		}
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return t.top.bind(vals, nil)
}

// bind returns the level with the parameter values bound, under the bound
// enclosing query outer; a level no parameter binds into is shared.
func (l *level) bind(vals []any, outer *Analyzed) (*Analyzed, error) {
	if !l.params {
		return l.a, nil
	}
	a := *l.a
	a.Outer = outer
	if len(l.times) > 0 {
		q := *a.Query
		for _, ts := range l.times {
			var end *time.Time
			if ts.end >= 0 {
				e := vals[ts.end].(time.Time)
				end = &e
			}
			spec := newTimeSpec(vals[ts.start].(time.Time), end)
			if ts.v < 0 {
				q.At = spec
				continue
			}
			if &q.Vars[0] == &a.Query.Vars[0] { // the first @ binding: copy the variables
				q.Vars = slices.Clone(q.Vars)
			}
			q.Vars[ts.v].At = spec
		}
		a.Query = &q
	}
	if len(l.vars) > 0 {
		a.Checked = maps.Clone(a.Checked)
		for _, vs := range l.vars {
			args := slices.Clone(vs.args)
			for k, s := range vs.sites {
				args[k].Value = vals[s]
			}
			c, err := a.Checked[vs.name].Bind(args)
			if err != nil {
				return nil, fmt.Errorf("query: in %s MATCHES: %w", vs.name, err)
			}
			a.Checked[vs.name] = c
		}
	}
	if len(l.subs) > 0 {
		a.Subqueries = slices.Clone(a.Subqueries)
		for i, s := range l.subs {
			sub, err := s.bind(vals, &a)
			if err != nil {
				return nil, err
			}
			a.Subqueries[i] = sub
		}
	}
	return &a, nil
}
