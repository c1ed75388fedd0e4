package rpe

import (
	"fmt"
	"math"
	"strings"
	"unicode"
)

type Kind uint8

const (
	KindEOF Kind = iota
	KindIdent
	KindInt
	KindFloat
	KindString
	KindArrow  // ->
	KindPipe   // |
	KindLParen // (
	KindRParen // )
	KindLBrack // [
	KindRBrack // ]
	KindLBrace // {
	KindRBrace // }
	KindComma  // ,
	KindMinus  // - (brace range separator or numeric sign)
	KindEq     // =
	KindNe     // !=
	KindLt     // <
	KindLe     // <=
	KindGt     // >
	KindGe     // >=
	KindMatch  // =~
	KindDot    // .
	KindAt     // @
	KindColon  // : (standalone, e.g. the AT t1 : t2 range separator)
)

func (k Kind) String() string {
	switch k {
	case KindEOF:
		return "end of input"
	case KindIdent:
		return "identifier"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindArrow:
		return "'->'"
	case KindPipe:
		return "'|'"
	case KindLParen:
		return "'('"
	case KindRParen:
		return "')'"
	case KindLBrack:
		return "'['"
	case KindRBrack:
		return "']'"
	case KindLBrace:
		return "'{'"
	case KindRBrace:
		return "'}'"
	case KindComma:
		return "','"
	case KindMinus:
		return "'-'"
	case KindEq:
		return "'='"
	case KindNe:
		return "'!='"
	case KindLt:
		return "'<'"
	case KindLe:
		return "'<='"
	case KindGt:
		return "'>'"
	case KindGe:
		return "'>='"
	case KindMatch:
		return "'=~'"
	case KindDot:
		return "'.'"
	case KindAt:
		return "'@'"
	case KindColon:
		return "':'"
	}
	return "?"
}

// keywords are the Nepal query language's reserved words in their
// normalized upper case. The lexer emits them as identifiers; the query
// parser refuses them as variable names and the statement fingerprint
// upper-cases them.
var keywords = [...]string{
	"RETRIEVE", "SELECT", "FROM", "WHERE", "AND", "MATCHES", "PATHS",
	"AT", "NOT", "EXISTS", "SOURCE", "TARGET", "LEN", "COUNT", "FIRST",
	"LAST", "TIME", "WHEN",
}

// Keyword returns s's reserved word in upper case, matched without
// regard to case, and whether s is one.
func Keyword(s string) (string, bool) {
	for _, kw := range keywords {
		if strings.EqualFold(s, kw) {
			return kw, true
		}
	}
	return "", false
}

// Token is one lexeme: its kind, its text, and its byte offset in the
// source. The fields are ordered so a token packs into 24 bytes.
type Token struct {
	Kind Kind
	Pos  int32
	Text string
}

// lexer tokenizes RPE (and Nepal query) source text. The Nepal language
// front end in internal/query reuses it via Lex.
type lexer struct {
	src  string
	pos  int
	toks []Token
}

// maxTokenGuess caps Lex's initial token capacity (12 KB of tokens).
const maxTokenGuess = 512

// Lex tokenizes src, returning the token stream or a positioned error.
// A token's position is an int32, so a source longer than
// math.MaxInt32 bytes is refused.
func Lex(src string) ([]Token, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("rpe: source of %d bytes exceeds the %d-byte limit", len(src), math.MaxInt32)
	}
	// One token per two bytes covers typical statements in one
	// allocation; denser text grows the slice. The guess is capped so a
	// long literal does not reserve room for tokens it does not hold.
	l := &lexer{src: src, toks: make([]Token, 0, min(len(src)/2, maxTokenGuess)+1)}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.peek(1) == '>':
			l.emit(KindArrow, "->", 2)
		case c == '-':
			l.emit(KindMinus, "-", 1)
		case c == '|':
			l.emit(KindPipe, "|", 1)
		case c == '(':
			l.emit(KindLParen, "(", 1)
		case c == ')':
			l.emit(KindRParen, ")", 1)
		case c == '[':
			l.emit(KindLBrack, "[", 1)
		case c == ']':
			l.emit(KindRBrack, "]", 1)
		case c == '{':
			l.emit(KindLBrace, "{", 1)
		case c == '}':
			l.emit(KindRBrace, "}", 1)
		case c == ',':
			l.emit(KindComma, ",", 1)
		case c == '.':
			l.emit(KindDot, ".", 1)
		case c == '@':
			l.emit(KindAt, "@", 1)
		case c == ':':
			l.emit(KindColon, ":", 1)
		case c == '=' && l.peek(1) == '~':
			l.emit(KindMatch, "=~", 2)
		case c == '=':
			l.emit(KindEq, "=", 1)
		case c == '!' && l.peek(1) == '=':
			l.emit(KindNe, "!=", 2)
		case c == '<' && l.peek(1) == '>':
			l.emit(KindNe, "<>", 2)
		case c == '<' && l.peek(1) == '=':
			l.emit(KindLe, "<=", 2)
		case c == '<':
			l.emit(KindLt, "<", 1)
		case c == '>' && l.peek(1) == '=':
			l.emit(KindGe, ">=", 2)
		case c == '>':
			l.emit(KindGt, ">", 1)
		case c == '\'':
			if err := l.lexString(); err != nil {
				return err
			}
		case c >= '0' && c <= '9':
			l.lexNumber()
		case isIdentStart(rune(c)):
			l.lexIdent()
		default:
			return fmt.Errorf("rpe: unexpected character %q at position %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, Token{Kind: KindEOF, Pos: int32(l.pos)})
	return nil
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead < len(l.src) {
		return l.src[l.pos+ahead]
	}
	return 0
}

func (l *lexer) emit(kind Kind, text string, width int) {
	l.toks = append(l.toks, Token{Kind: kind, Text: text, Pos: int32(l.pos)})
	l.pos += width
}

// lexString scans a single-quoted SQL-style string, in which a doubled
// quote stands for one. A string without one is its slice of the source.
func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	escaped := false
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.peek(1) == '\'' {
			escaped = true
			l.pos += 2
			continue
		}
		text := l.src[start+1 : l.pos]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		l.pos++
		l.toks = append(l.toks, Token{Kind: KindString, Text: text, Pos: int32(start)})
		return nil
	}
	return fmt.Errorf("rpe: unterminated string starting at position %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	kind := KindInt
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) &&
		l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		kind = KindFloat
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	l.toks = append(l.toks, Token{Kind: kind, Text: l.src[start:l.pos], Pos: int32(start)})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, Token{Kind: KindIdent, Text: l.src[start:l.pos], Pos: int32(start)})
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	// ':' admits inheritance-path class names such as VNF:Firewall.
	return r == '_' || r == ':' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
