package query

import (
	"testing"

	"repro/internal/rpe"
	"repro/internal/stats"
)

// FuzzPrepare throws arbitrary bytes at what core.DB.Prepare runs on
// untrusted statement text — one rpe.Lex, ParseTokens and
// AnalyzeWithViews over its tokens, stats.FingerprintTokens over the same
// tokens — and pins its contract: nothing panics, the digest and
// normalized text from the parser's tokens are the ones
// stats.Fingerprint computes from the text (so never its "!" raw-text
// fallback), and preparing it again accepts it again under the same
// digest.
func FuzzPrepare(f *testing.F) {
	for _, src := range paperQueries {
		f.Add([]byte(src))
	}
	views := Views{"Placements": rpe.MustParse("VM()->OnServer()->Host()")}
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
		digest, norm = stats.FingerprintTokens(toks)
		return digest, norm, true
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		src := string(b)
		digest, norm, ok := prepare(src)
		if !ok {
			return
		}
		if text, textNorm := stats.Fingerprint(src); text != digest || textNorm != norm {
			t.Fatalf("%q: digest %s (%q) from the parser's tokens, %s (%q) from the text", src, digest, norm, text, textNorm)
		}
		if again, _, ok := prepare(src); !ok || again != digest {
			t.Fatalf("re-prepare of %q: accepted=%v digest %s, first digest %s", src, ok, again, digest)
		}
	})
}
