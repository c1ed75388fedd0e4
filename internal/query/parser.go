package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rpe"
	"repro/internal/temporal"
)

// Parse parses a Nepal query, e.g.
//
//	AT '2017-02-15 10:00:00'
//	Select source(P) From PATHS P
//	Where P MATCHES VNF()->[HostedOn()]{1,6}->Host(id=23245)
//
// Keywords are case-insensitive. Timestamps are read by temporal.Parse.
func Parse(src string) (*Query, error) {
	toks, err := rpe.Lex(src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(src, toks)
}

// ParseTokens is Parse over src's token stream from rpe.Lex, for a
// caller that uses the tokens again (core.Prepare fingerprints the
// statement from them). It does not modify toks.
func ParseTokens(src string, toks []rpe.Token) (*Query, error) {
	p := &parser{toks: toks, src: src}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != rpe.KindEOF {
		return nil, p.errf("unexpected input after query: %q", p.cur().Text)
	}
	return q, nil
}

// MustParse is Parse for known-good query literals.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []rpe.Token
	i    int
	src  string
}

func (p *parser) cur() rpe.Token  { return p.toks[p.i] }
func (p *parser) next() rpe.Token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: %s at position %d", fmt.Sprintf(format, args...), p.cur().Pos)
}

// kw reports whether the current token is the given keyword (an identifier
// compared case-insensitively).
func (p *parser) kw(word string) bool {
	return p.cur().Kind == rpe.KindIdent && strings.EqualFold(p.cur().Text, word)
}

func (p *parser) acceptKw(word string) bool {
	if p.kw(word) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.acceptKw(word) {
		return p.errf("expected keyword %s, found %q", strings.ToUpper(word), p.cur().Text)
	}
	return nil
}

// query := agg? timeClause? verb projList FROM fromList (WHERE predList)?
func (p *parser) query() (*Query, error) {
	q := &Query{}

	switch {
	case p.kw("first"):
		p.next()
		if err := p.expectKw("time"); err != nil {
			return nil, err
		}
		if err := p.whenExists(); err != nil {
			return nil, err
		}
		q.Agg = AggFirstTime
	case p.kw("last"):
		p.next()
		if err := p.expectKw("time"); err != nil {
			return nil, err
		}
		if err := p.whenExists(); err != nil {
			return nil, err
		}
		q.Agg = AggLastTime
	case p.kw("when"):
		p.next()
		if err := p.expectKw("exists"); err != nil {
			return nil, err
		}
		q.Agg = AggWhenExists
	}

	if p.kw("at") {
		p.next()
		ts, err := p.timeSpec()
		if err != nil {
			return nil, err
		}
		q.At = ts
	}

	switch {
	case p.acceptKw("retrieve"):
		q.Verb = Retrieve
	case p.acceptKw("select"):
		q.Verb = Select
	default:
		return nil, p.errf("expected RETRIEVE or SELECT, found %q", p.cur().Text)
	}

	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		q.Projs = append(q.Projs, t)
		if p.cur().Kind != rpe.KindComma {
			break
		}
		p.next()
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		rv, err := p.rangeVar()
		if err != nil {
			return nil, err
		}
		q.Vars = append(q.Vars, rv)
		if p.cur().Kind != rpe.KindComma {
			break
		}
		p.next()
	}

	if p.acceptKw("where") {
		for {
			pred, err := p.pred()
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, pred)
			if !p.acceptKw("and") {
				break
			}
		}
	}
	return q, nil
}

func (p *parser) whenExists() error {
	if err := p.expectKw("when"); err != nil {
		return err
	}
	return p.expectKw("exists")
}

// timeSpec := STRING (':' STRING)?
func (p *parser) timeSpec() (*TimeSpec, error) {
	if p.cur().Kind != rpe.KindString {
		return nil, p.errf("expected a quoted timestamp after AT, found %q", p.cur().Text)
	}
	start, err := temporal.Parse(p.next().Text)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if p.cur().Kind != rpe.KindColon {
		return newTimeSpec(start, nil), nil
	}
	p.next()
	if p.cur().Kind != rpe.KindString {
		return nil, p.errf("expected a quoted timestamp after ':'")
	}
	end, err := temporal.Parse(p.next().Text)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if err := checkRange(start, end); err != nil {
		return nil, err
	}
	return newTimeSpec(start, &end), nil
}

// checkRange rejects a query-level AT range that does not run forward.
func checkRange(start, end time.Time) error {
	if !start.Before(end) {
		return fmt.Errorf("query: time range start %v is not before end %v", start, end)
	}
	return nil
}

// term := IDENT | fn '(' IDENT ')' ('.' IDENT)?
func (p *parser) term() (Term, error) {
	if p.cur().Kind != rpe.KindIdent {
		return Term{}, p.errf("expected a variable or pathway function, found %q", p.cur().Text)
	}
	name := p.next().Text
	fn := fnNamed(name)
	if fn == FnNone || p.cur().Kind != rpe.KindLParen {
		// A bare variable reference. Reserved function names cannot double
		// as variable names, which analysis enforces.
		return Term{Var: name}, nil
	}
	p.next() // (
	if p.cur().Kind != rpe.KindIdent {
		return Term{}, p.errf("expected a variable inside %s(...)", fn)
	}
	v := p.next().Text
	if p.cur().Kind != rpe.KindRParen {
		return Term{}, p.errf("expected ')' after %s(%s", fn, v)
	}
	p.next()
	t := Term{Var: v, Fn: fn}
	if p.cur().Kind == rpe.KindDot {
		if fn == FnLen || fn == FnCount {
			return Term{}, p.errf("%s(%s) has no fields", fn, v)
		}
		p.next()
		if p.cur().Kind != rpe.KindIdent {
			return Term{}, p.errf("expected a field name after '.'")
		}
		t.Field = p.next().Text
	}
	return t, nil
}

// rangeVar := (PATHS | viewName)? IDENT ('(' '@' STRING (':' STRING)? ')')?
// The view source may be elided for variables after the first, matching
// the paper's "From PATHS P(@...), Q(@...)" spelling; a non-PATHS source
// names a user-defined pathway view, resolved during analysis.
func (p *parser) rangeVar() (RangeVar, error) {
	rv := RangeVar{Source: BaseView}
	if p.acceptKw("paths") {
		// explicit base view
	} else if p.cur().Kind == rpe.KindIdent && p.i+1 < len(p.toks) &&
		p.toks[p.i+1].Kind == rpe.KindIdent && !isReserved(p.toks[p.i+1].Text) {
		// Two consecutive identifiers: the first names a view source.
		rv.Source = p.next().Text
	}
	if p.cur().Kind != rpe.KindIdent {
		return RangeVar{}, p.errf("expected a pathway variable name, found %q", p.cur().Text)
	}
	rv.Name = p.next().Text
	if isReserved(rv.Name) {
		return RangeVar{}, fmt.Errorf("query: %q is a reserved word and cannot name a variable", rv.Name)
	}
	if p.cur().Kind == rpe.KindLParen {
		p.next()
		if p.cur().Kind != rpe.KindAt {
			return RangeVar{}, p.errf("expected '@time' inside variable binding")
		}
		p.next()
		if p.cur().Kind != rpe.KindString {
			return RangeVar{}, p.errf("expected a quoted timestamp after '@'")
		}
		start, err := temporal.Parse(p.next().Text)
		if err != nil {
			return RangeVar{}, fmt.Errorf("query: %w", err)
		}
		var end *time.Time
		if p.cur().Kind == rpe.KindColon {
			p.next()
			if p.cur().Kind != rpe.KindString {
				return RangeVar{}, p.errf("expected a quoted timestamp after ':'")
			}
			t, err := temporal.Parse(p.next().Text)
			if err != nil {
				return RangeVar{}, fmt.Errorf("query: %w", err)
			}
			end = &t
		}
		rv.At = newTimeSpec(start, end)
		if p.cur().Kind != rpe.KindRParen {
			return RangeVar{}, p.errf("expected ')' after variable time binding")
		}
		p.next()
	}
	return rv, nil
}

// pred := IDENT MATCHES rpe | term (=|!=) term | NOT EXISTS '(' query ')'
func (p *parser) pred() (Pred, error) {
	if p.acceptKw("not") {
		if err := p.expectKw("exists"); err != nil {
			return nil, err
		}
		if p.cur().Kind != rpe.KindLParen {
			return nil, p.errf("expected '(' after NOT EXISTS")
		}
		p.next()
		sub, err := p.query()
		if err != nil {
			return nil, err
		}
		if p.cur().Kind != rpe.KindRParen {
			return nil, p.errf("expected ')' closing NOT EXISTS subquery")
		}
		p.next()
		return &NotExistsPred{Sub: sub}, nil
	}

	// Lookahead: "IDENT MATCHES" is a match predicate; anything else is a
	// join comparison between terms.
	if p.cur().Kind == rpe.KindIdent && !isFn(p.cur().Text) &&
		p.i+1 < len(p.toks) && p.toks[p.i+1].Kind == rpe.KindIdent &&
		strings.EqualFold(p.toks[p.i+1].Text, "matches") {
		v := p.next().Text
		p.next() // MATCHES
		expr, ni, err := rpe.ParseTokens(p.toks, p.i, p.src)
		if err != nil {
			return nil, err
		}
		p.i = ni
		return &MatchPred{Var: v, Expr: expr}, nil
	}

	left, err := p.term()
	if err != nil {
		return nil, err
	}
	negated := false
	switch p.cur().Kind {
	case rpe.KindEq:
		p.next()
	case rpe.KindNe:
		p.next()
		negated = true
	default:
		return nil, p.errf("expected '=' or '!=' in join predicate, found %q", p.cur().Text)
	}
	right, err := p.term()
	if err != nil {
		return nil, err
	}
	return &JoinPred{Left: left, Right: right, Negated: negated}, nil
}

// fnNamed returns the pathway function an identifier names, compared
// case-insensitively, or FnNone.
func fnNamed(s string) PathFn {
	for _, f := range [...]PathFn{FnSource, FnTarget, FnLen, FnCount} {
		if strings.EqualFold(s, f.String()) {
			return f
		}
	}
	return FnNone
}

func isFn(s string) bool { return fnNamed(s) != FnNone }

// isReserved reports whether s is a keyword, which cannot name a
// variable.
func isReserved(s string) bool {
	_, ok := rpe.Keyword(s)
	return ok
}
