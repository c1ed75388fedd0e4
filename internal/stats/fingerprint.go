// Package stats aggregates per-statement workload statistics, in the
// style of pg_stat_statements: every query is normalized to a stable
// digest by masking literals through the query lexer, and a bounded
// top-K store accumulates calls, outcomes, latency, and scan volume per
// digest. The store is the rollup layer above the per-request telemetry
// from internal/obs — the access log and trace store carry the same
// digest, so one hot statement can be chased across every surface.
package stats

import (
	"strings"

	"repro/internal/rpe"
)

// MaskedLiteral is the placeholder substituted for every string, int,
// and float literal in the normalized statement text.
const MaskedLiteral = "?"

// Fingerprint normalizes src and returns its digest (16 lowercase hex
// characters) together with the normalized text. Normalization lexes
// the statement with the shared RPE/Nepal lexer, masks every literal
// token as "?", uppercases reserved keywords, and rejoins tokens with
// single spaces — so two statements that differ only in literal values,
// whitespace, or keyword case share a digest, while any structural
// difference (different tokens) yields a different one.
//
// Text that does not lex (the server still counts statements that fail
// to parse) falls back to hashing the whitespace-trimmed raw text with
// an "!" prefix on the normalized form, keeping the digest stable per
// unlexable spelling without colliding with lexable statements.
func Fingerprint(src string) (digest, normalized string) {
	return digestOf(Normalize(src))
}

// FingerprintTokens is Fingerprint over src's token stream from rpe.Lex,
// for a caller that has lexed the statement already (core.Prepare
// parses from the same tokens): one lex per statement.
func FingerprintTokens(toks []rpe.Token) (digest, normalized string) {
	return digestOf(normalizeTokens(toks))
}

// digestOf returns the 64-bit FNV-1a hash of normalized as 16 lowercase
// hex characters, together with normalized. The hash is computed inline:
// hash/fnv's hasher and the []byte it reads would each allocate.
func digestOf(normalized string) (digest, norm string) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	sum := uint64(offset64)
	for i := 0; i < len(normalized); i++ {
		sum ^= uint64(normalized[i])
		sum *= prime64
	}
	const hexdigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[sum&0xf]
		sum >>= 4
	}
	return string(buf[:]), normalized
}

// Normalize returns the literal-masked canonical form of src that
// Fingerprint hashes. Exposed separately so surfaces that show the
// statement shape (the stats endpoint, the -top CLI) can display the
// same text the digest is computed from.
func Normalize(src string) string {
	toks, err := rpe.Lex(src)
	if err != nil {
		return "!" + strings.TrimSpace(src)
	}
	return normalizeTokens(toks)
}

func normalizeTokens(toks []rpe.Token) string {
	n := 0
	for _, t := range toks {
		n += max(len(t.Text), 1) + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, t := range toks {
		if t.Kind == rpe.KindEOF {
			break
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		switch t.Kind {
		case rpe.KindString, rpe.KindInt, rpe.KindFloat:
			sb.WriteString(MaskedLiteral)
		case rpe.KindIdent:
			sb.WriteString(keywordOr(t.Text))
		default:
			sb.WriteString(t.Text)
		}
	}
	return sb.String()
}

// keywordOr returns an identifier's normalized spelling: a keyword in
// upper case, so "select" and "SELECT" digest identically; class and
// variable names as written, since they are case-sensitive.
func keywordOr(s string) string {
	if kw, ok := rpe.Keyword(s); ok {
		return kw
	}
	return s
}
