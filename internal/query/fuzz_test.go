package query

import (
	"strings"
	"testing"

	"repro/internal/rpe"
	"repro/internal/stats"
)

// FuzzPrepare throws arbitrary bytes at what core.DB.Prepare runs on
// untrusted statement text — Parse, AnalyzeWithViews, stats.Fingerprint —
// and pins its contract: nothing panics, a statement the parser accepts
// is one the fingerprint lexer accepts too (no "!" raw-text fallback),
// and preparing it again accepts it again under the same digest.
func FuzzPrepare(f *testing.F) {
	for _, src := range paperQueries {
		f.Add([]byte(src))
	}
	views := Views{"Placements": rpe.MustParse("VM()->OnServer()->Host()")}
	f.Add([]byte(`Select source(P).name From Placements P Where P MATCHES VM(status='Red')->OnServer()->Host()`))
	f.Add([]byte(`AT 'not a time' Retrieve P From PATHS P Where P MATCHES VM()`))
	f.Add([]byte(`Retrieve P From PATHS P Where NOT EXISTS( Retrieve Q From PATHS Q Where Q MATCHES VM()`))
	f.Add([]byte{})

	prepare := func(src string) (digest, norm string, ok bool) {
		q, err := Parse(src)
		if err != nil {
			return "", "", false
		}
		if _, err := AnalyzeWithViews(q, sch, views); err != nil {
			return "", "", false
		}
		digest, norm = stats.Fingerprint(src)
		return digest, norm, true
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		src := string(b)
		digest, norm, ok := prepare(src)
		if !ok {
			return
		}
		if strings.HasPrefix(norm, "!") {
			t.Fatalf("statement parsed but did not lex for its fingerprint: %q", src)
		}
		if again, _, ok := prepare(src); !ok || again != digest {
			t.Fatalf("re-prepare of %q: accepted=%v digest %s, first digest %s", src, ok, again, digest)
		}
	})
}
