package rpe

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses the textual form of a regular pathway expression, e.g.
//
//	VNF()->[Vertical()]{1,6}->Host(id=23245)
//	(VM(id=55)|Docker(id=66))->HostedOn(){1,2}->Host()
//
// Repetition braces may follow an atom directly (Vertical(){1,6}) or a
// bracketed group ([Vertical()]{1,6}); both paper spellings are accepted,
// as is the {i-j} range separator.
func Parse(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{toks: toks, src: src}
	e, err := p.alternation()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != KindEOF {
		return nil, p.errf("unexpected %s after expression", p.cur().Kind)
	}
	return e, nil
}

// MustParse is Parse for known-good literals in tests and examples.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type exprParser struct {
	toks []Token
	i    int
	src  string
}

func (p *exprParser) cur() Token  { return p.toks[p.i] }
func (p *exprParser) next() Token { t := p.toks[p.i]; p.i++; return t }

func (p *exprParser) expect(kind Kind) (Token, error) {
	if p.cur().Kind != kind {
		return Token{}, p.errf("expected %s, found %s", kind, p.cur().Kind)
	}
	return p.next(), nil
}

func (p *exprParser) errf(format string, args ...any) error {
	return posErr(int(p.cur().Pos), p.src, format, args...)
}

// alternation := sequence ('|' sequence)*
func (p *exprParser) alternation() (Expr, error) {
	first, err := p.sequence()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != KindPipe {
		return first, nil
	}
	alt := &Alternation{Alts: []Expr{first}}
	for p.cur().Kind == KindPipe {
		p.next()
		e, err := p.sequence()
		if err != nil {
			return nil, err
		}
		alt.Alts = append(alt.Alts, e)
	}
	return alt, nil
}

// sequence := repetition ('->' repetition)*
func (p *exprParser) sequence() (Expr, error) {
	first, err := p.repetition()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != KindArrow {
		return first, nil
	}
	seq := &Sequence{Parts: []Expr{first}}
	for p.cur().Kind == KindArrow {
		p.next()
		e, err := p.repetition()
		if err != nil {
			return nil, err
		}
		seq.Parts = append(seq.Parts, e)
	}
	return seq, nil
}

// repetition := primary braces?
func (p *exprParser) repetition() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != KindLBrace {
		return e, nil
	}
	min, max, err := p.braces()
	if err != nil {
		return nil, err
	}
	return &Repetition{Body: e, Min: min, Max: max}, nil
}

// braces := '{' INT (','|'-') INT '}'  |  '{' INT '}'
func (p *exprParser) braces() (min, max int, err error) {
	if _, err = p.expect(KindLBrace); err != nil {
		return 0, 0, err
	}
	lo, err := p.expect(KindInt)
	if err != nil {
		return 0, 0, err
	}
	min, err = strconv.Atoi(lo.Text)
	if err != nil {
		return 0, 0, p.errf("bad repetition bound %q", lo.Text)
	}
	switch p.cur().Kind {
	case KindComma, KindMinus:
		p.next()
		hi, err2 := p.expect(KindInt)
		if err2 != nil {
			return 0, 0, err2
		}
		max, err = strconv.Atoi(hi.Text)
		if err != nil {
			return 0, 0, p.errf("bad repetition bound %q", hi.Text)
		}
	case KindRBrace:
		max = min
	default:
		return 0, 0, p.errf("expected ',' or '}' in repetition bounds, found %s", p.cur().Kind)
	}
	if _, err = p.expect(KindRBrace); err != nil {
		return 0, 0, err
	}
	if min < 0 || max < min {
		return 0, 0, fmt.Errorf("rpe: invalid repetition bounds {%d,%d}", min, max)
	}
	if max == 0 {
		return 0, 0, fmt.Errorf("rpe: repetition {%d,%d} can never match", min, max)
	}
	return min, max, nil
}

// primary := atom | '[' alternation ']' braces? | '(' alternation ')'
func (p *exprParser) primary() (Expr, error) {
	switch p.cur().Kind {
	case KindIdent:
		return p.atom()
	case KindLBrack:
		p.next()
		e, err := p.alternation()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KindRBrack); err != nil {
			return nil, err
		}
		return e, nil
	case KindLParen:
		p.next()
		e, err := p.alternation()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KindRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected an atom, '[' or '(', found %s", p.cur().Kind)
}

// atom := IDENT '(' predlist? ')'
func (p *exprParser) atom() (Expr, error) {
	name, err := p.expect(KindIdent)
	if err != nil {
		return nil, err
	}
	a := &Atom{Class: name.Text, id: -1}
	if _, err := p.expect(KindLParen); err != nil {
		return nil, err
	}
	if p.cur().Kind == KindRParen {
		p.next()
		return a, nil
	}
	for {
		pred, err := p.pred()
		if err != nil {
			return nil, err
		}
		a.Preds = append(a.Preds, pred)
		if p.cur().Kind != KindComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(KindRParen); err != nil {
		return nil, err
	}
	return a, nil
}

// pred := path op value | path IN '(' value (',' value)* ')'
// path := IDENT ('.' IDENT)*
func (p *exprParser) pred() (FieldPred, error) {
	field, err := p.expect(KindIdent)
	if err != nil {
		return FieldPred{}, err
	}
	if strings.EqualFold(field.Text, "in") {
		return FieldPred{}, p.errf("missing field name before IN")
	}
	// Structured-data access: dotted paths reach into composite data types
	// and containers, e.g. routingTable.address (§3.2.1). A predicate on a
	// container path holds when any element satisfies it.
	for p.cur().Kind == KindDot {
		p.next()
		seg, err := p.expect(KindIdent)
		if err != nil {
			return FieldPred{}, err
		}
		field.Text += "." + seg.Text
	}
	if p.cur().Kind == KindIdent && strings.EqualFold(p.cur().Text, "in") {
		p.next()
		if _, err := p.expect(KindLParen); err != nil {
			return FieldPred{}, err
		}
		var list []any
		for {
			v, err := p.value()
			if err != nil {
				return FieldPred{}, err
			}
			list = append(list, v)
			if p.cur().Kind != KindComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(KindRParen); err != nil {
			return FieldPred{}, err
		}
		return FieldPred{Field: field.Text, Op: OpIn, List: list}, nil
	}

	var op Op
	switch p.cur().Kind {
	case KindEq:
		op = OpEq
	case KindNe:
		op = OpNe
	case KindLt:
		op = OpLt
	case KindLe:
		op = OpLe
	case KindGt:
		op = OpGt
	case KindGe:
		op = OpGe
	case KindMatch:
		op = OpMatch
	default:
		return FieldPred{}, p.errf("expected a comparison operator after field %q, found %s", field.Text, p.cur().Kind)
	}
	p.next()
	v, err := p.value()
	if err != nil {
		return FieldPred{}, err
	}
	return FieldPred{Field: field.Text, Op: op, Value: v}, nil
}

// value := INT | FLOAT | STRING | true | false | '-' (INT|FLOAT)
func (p *exprParser) value() (any, error) {
	neg := false
	if p.cur().Kind == KindMinus {
		neg = true
		p.next()
	}
	t := p.cur()
	switch t.Kind {
	case KindInt, KindFloat:
		p.next()
		return LiteralValue(t, neg, int(p.cur().Pos), p.src)
	case KindString:
		if neg {
			return nil, p.errf("'-' before string literal")
		}
		p.next()
		return t.Text, nil
	case KindIdent:
		if neg {
			return nil, p.errf("'-' before identifier")
		}
		switch strings.ToLower(t.Text) {
		case "true":
			p.next()
			return true, nil
		case "false":
			p.next()
			return false, nil
		}
	}
	return nil, p.errf("expected a literal value, found %s", t.Kind)
}

// LiteralValue is the value of a string or number literal token as the
// parser reads it: the string, an int64 or a float64, negated when neg
// (a '-' precedes the number). A number out of range fails with the
// parser's error, which names errPos in src: the position of the token
// after the literal, where the parser stands when it converts it.
func LiteralValue(t Token, neg bool, errPos int, src string) (any, error) {
	switch t.Kind {
	case KindInt:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, posErr(errPos, src, "bad integer %q", t.Text)
		}
		if neg {
			n = -n
		}
		return n, nil
	case KindFloat:
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, posErr(errPos, src, "bad float %q", t.Text)
		}
		if neg {
			f = -f
		}
		return f, nil
	}
	return t.Text, nil
}

// posErr is a parse error at byte position pos of src.
func posErr(pos int, src, format string, args ...any) error {
	return fmt.Errorf("rpe: %s at position %d in %q", fmt.Sprintf(format, args...), pos, src)
}

// ParseTokens parses an RPE from a token stream starting at offset i,
// returning the expression and the index of the first token past it. The
// Nepal query parser uses it to parse the expression following MATCHES,
// which extends until a token (such as the And keyword) that cannot
// continue an RPE.
func ParseTokens(toks []Token, i int, src string) (Expr, int, error) {
	p := &exprParser{toks: toks, i: i, src: src}
	e, err := p.alternation()
	if err != nil {
		return nil, i, err
	}
	return e, p.i, nil
}
