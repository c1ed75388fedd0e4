package query

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rpe"
)

// FuzzPrepare throws arbitrary bytes at what core.DB.Prepare runs on
// untrusted statement text — one rpe.Lex, ParseTokens and
// AnalyzeWithViews over its tokens, Fingerprint over the same tokens,
// NewTemplate over the analysis — and pins its contract: nothing panics,
// the digest is the FNV-1a hash of the normalized text, which masks
// exactly the template's parameters, preparing it again accepts it again
// under the same digest, every statement that analyzes makes a template,
// and the template bound to random literal substitutions — valid and
// invalid — gives what compiling the substituted text gives, error
// included, each substitution under the statement's digest.
func FuzzPrepare(f *testing.F) {
	for _, src := range paperQueries {
		f.Add([]byte(src))
	}
	views := placementsView(f)
	f.Add([]byte(`Select source(P).name From Placements P Where P MATCHES VM(status='Red')->OnServer()->Host()`))
	f.Add([]byte(`AT 'not a time' Retrieve P From PATHS P Where P MATCHES VM()`))
	f.Add([]byte(`Retrieve P From PATHS P Where NOT EXISTS( Retrieve Q From PATHS Q Where Q MATCHES VM()`))
	f.Add([]byte{})
	f.Add([]byte(`Retrieve P From PATHS P Where P MATCHES VM(name='it''s')->OnServer()->Host(name='')`))

	prepare := func(src string) (digest, norm string, ok bool) {
		toks, err := rpe.Lex(src)
		if err != nil {
			return "", "", false
		}
		q, err := ParseTokens(src, toks)
		if err != nil {
			return "", "", false
		}
		if _, err := AnalyzeWithViews(q, sch, views); err != nil {
			return "", "", false
		}
		digest, norm = Fingerprint(toks)
		return digest, norm, true
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		src := string(b)
		digest, norm, ok := prepare(src)
		if !ok {
			return
		}
		h := fnv.New64a()
		h.Write([]byte(norm))
		if want := fmt.Sprintf("%016x", h.Sum64()); digest != want {
			t.Fatalf("%q: digest %s, FNV-1a of %q is %s", src, digest, norm, want)
		}
		if again, _, ok := prepare(src); !ok || again != digest {
			t.Fatalf("re-prepare of %q: accepted=%v digest %s, first digest %s", src, ok, again, digest)
		}
		toks, _ := rpe.Lex(src)
		q, _ := ParseTokens(src, toks)
		a, _ := AnalyzeWithViews(q, sch, views)
		tmpl, err := NewTemplate(a, toks)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if masked := strings.Count(norm, "?"); masked != len(tmpl.sites) {
			t.Fatalf("%q: %d parameters, %d masked in %q", src, len(tmpl.sites), masked, norm)
		}
		h.Reset()
		h.Write(b)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		for range 4 {
			checkSubstitution(t, tmpl, views, digest, substitute(src, toks, rng))
		}
	})
}

// checkSubstitution compares binding sub, a statement of tmpl's shape,
// with compiling it afresh, and holds it to the shape's digest.
func checkSubstitution(t *testing.T, tmpl *Template, views Views, digest, sub string) {
	t.Helper()
	toks, err := rpe.Lex(sub)
	if err != nil {
		t.Fatalf("substituted %q does not lex: %v", sub, err)
	}
	if d, norm := Fingerprint(toks); d != digest {
		t.Fatalf("substituted %q: digest %s (%q), the statement's is %s", sub, d, norm, digest)
	}
	want, wantErr := func() (*Analyzed, error) {
		q, err := ParseTokens(sub, toks)
		if err != nil {
			return nil, err
		}
		return AnalyzeWithViews(q, sch, views)
	}()
	got, gotErr := tmpl.Bind(sub, toks)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: bound error %v, compiled error %v", sub, gotErr, wantErr)
	}
	if wantErr == nil && describe(got) != describe(want) {
		t.Fatalf("%q:\nbound:    %s\ncompiled: %s", sub, describe(got), describe(want))
	}
}

// substitute replaces each parameter literal of src (see AppendShape)
// with a random literal of the same kind — some of them invalid values:
// out-of-range numbers, unparseable or reversed timestamps.
func substitute(src string, toks []rpe.Token, rng *rand.Rand) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	var sb strings.Builder
	last, bounds := 0, 0
	for _, tk := range toks {
		switch tk.Kind {
		case rpe.KindLBrace:
			bounds++
		case rpe.KindRBrace:
			bounds--
		}
		var lit string
		switch {
		case bounds > 0:
			continue
		case tk.Kind == rpe.KindInt:
			lit = pick("0", "7", "1001", "23245", "99999999999999999999")
		case tk.Kind == rpe.KindFloat:
			lit = pick("0.5", "7.0", "1.25")
		case tk.Kind == rpe.KindString:
			lit = pick("'x'", "'it''s'", "''", "'Green'", "'10.0.0.1'", "'not a time'",
				"'2017-02-15 10:00'", "'2017-02-15 11:00:00'", "'2016-01-01'", "'2017-02-15T09:00:00Z'")
		default:
			continue
		}
		sb.WriteString(src[last:tk.Pos])
		sb.WriteString(lit)
		last = literalEnd(src, tk)
	}
	sb.WriteString(src[last:])
	return sb.String()
}

// literalEnd returns the offset just past the literal token tk in src.
func literalEnd(src string, tk rpe.Token) int {
	pos := int(tk.Pos)
	if tk.Kind != rpe.KindString {
		return pos + len(tk.Text)
	}
	for i := pos + 1; i < len(src); i++ {
		if src[i] != '\'' {
			continue
		}
		if i+1 < len(src) && src[i+1] == '\'' {
			i++
			continue
		}
		return i + 1
	}
	return len(src)
}

// describe renders every value-dependent part of an analysis: the AT
// clause and @ bindings with their windows, and each variable's checked
// expression, through the subqueries.
func describe(a *Analyzed) string {
	var sb strings.Builder
	spec := func(ts *TimeSpec) {
		if ts != nil {
			fmt.Fprintf(&sb, "%s %v; ", ts, ts.Window)
		}
	}
	spec(a.Query.At)
	for _, rv := range a.Query.Vars {
		fmt.Fprintf(&sb, "%s: ", rv.Name)
		spec(rv.At)
		if c := a.Checked[rv.Name]; c != nil {
			fmt.Fprintf(&sb, "%s max %d; ", c.Expr, c.MaxLen())
		}
		if c := a.ViewChecked[rv.Name]; c != nil {
			fmt.Fprintf(&sb, "view %s; ", c.Expr)
		}
	}
	for _, sub := range a.Subqueries {
		fmt.Fprintf(&sb, "(%s) ", describe(sub))
	}
	return sb.String()
}
