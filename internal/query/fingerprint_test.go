package query

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/rpe"
)

// fingerprint is Fingerprint over src's tokens.
func fingerprint(t testing.TB, src string) (digest, normalized string) {
	t.Helper()
	toks, err := rpe.Lex(src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return Fingerprint(toks)
}

// Each group lists spellings that must share one digest: they differ
// only in literal values, whitespace, or keyword case.
var equivalentGroups = [][]string{
	{
		"Host(id=23245)",
		"Host(id=1)",
		"Host( id = 99999 )",
		"Host(id=23245)  ",
	},
	{
		"VM(name='web-1') -> Host",
		"VM(name='db-42') -> Host",
		"VM(name='') -> Host",
	},
	{
		"RETRIEVE PATHS P FROM VM -> Switch -> Host WHERE P AT '2017-02-15 10:00:00'",
		"retrieve paths P from VM -> Switch -> Host where P at '2020-01-01 00:00:00'",
	},
	{
		"Port(speed=10.5)",
		"Port(speed=0.1)",
	},
	{
		"VM{1-3} -> Host",
		"VM{1-3}   ->   Host",
	},
	{
		"Retrieve P From PATHS P Where P MATCHES VNF(id=1)->[Vertical()]{1,6}->Host(name='a')",
		"retrieve P from PATHS P where P matches VNF(id=77)->[Vertical()]{1,6}->Host(name='b')",
	},
}

// Structurally distinct statements: no two may collide.
var distinctCorpus = []string{
	"Host(id=1)",
	"Host(name='x')",
	"VM(id=1)",
	"VM -> Host",
	"VM -> Switch -> Host",
	"VM -> Switch | Router -> Host",
	"VM{1-3} -> Host",
	"VM{2-3} -> Host",
	"RETRIEVE PATHS P FROM VM -> Host",
	"RETRIEVE PATHS P FROM VM -> Host WHERE P AT '2017-01-01'",
	"SELECT count FROM VM -> Host",
	"Host(id!=1)",
	"Host(id<1)",
	"Host(id>=1)",
	"Host(name=~'web')",
	"VNF:Firewall -> Host",
	"Host.port",
}

func TestFingerprintMasksLiterals(t *testing.T) {
	for gi, group := range equivalentGroups {
		base, baseNorm := fingerprint(t, group[0])
		for _, q := range group[1:] {
			d, norm := fingerprint(t, q)
			if d != base {
				t.Errorf("group %d: %q -> %s (norm %q), want %s (norm %q) as for %q",
					gi, q, d, norm, base, baseNorm, group[0])
			}
		}
	}
}

func TestFingerprintStructuralDistinct(t *testing.T) {
	seen := make(map[string]string, len(distinctCorpus))
	for _, q := range distinctCorpus {
		d, _ := fingerprint(t, q)
		if prev, ok := seen[d]; ok {
			t.Errorf("digest collision: %q and %q both -> %s", prev, q, d)
		}
		seen[d] = q
	}
}

// TestFingerprintIsShape holds the digest to the statement table's key:
// repetition bounds size the automaton, so statements that differ in
// them are two shapes with two plans and two digests, while literals
// and keyword case leave both alike. A statement without bounds keeps
// the digest it has always had.
func TestFingerprintIsShape(t *testing.T) {
	const src = "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{%s}->Host(id=%d)"
	short, _ := fingerprint(t, fmt.Sprintf(src, "1,2", 1001))
	long, norm := fingerprint(t, fmt.Sprintf(src, "1,6", 1001))
	if short == long {
		t.Errorf("{1,2} and {1,6} share digest %s", short)
	}
	if want := "RETRIEVE P FROM PATHS P WHERE P MATCHES VNF ( ) -> [ Vertical ( ) ] { 1 , 6 } -> Host ( id = ? )"; norm != want {
		t.Errorf("normalized\n  got  %q\n  want %q", norm, want)
	}
	for _, q := range []string{
		fmt.Sprintf(src, "1,6", 7),
		"retrieve P from PATHS P where P matches VNF()->[Vertical()]{1,6}->Host(id=23245)",
	} {
		if d, _ := fingerprint(t, q); d != long {
			t.Errorf("%q: digest %s, want %s", q, d, long)
		}
	}
	if d, _ := fingerprint(t, "Retrieve P From PATHS P Where P MATCHES Host(id=1001)"); d != "e578e3bd2cd8b27b" {
		t.Errorf("digest of a statement without bounds moved: %s, want e578e3bd2cd8b27b", d)
	}
}

func TestFingerprintDigestShape(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, q := range distinctCorpus {
		if d, _ := fingerprint(t, q); !hex16.MatchString(d) {
			t.Fatalf("digest %q for %q is not 16 lowercase hex chars", d, q)
		}
	}
}

// TestFingerprintDigestIsFNV1a pins the digest to the 64-bit FNV-1a hash
// of the normalized text, the digest every release has published (the
// statistics table, /metrics series and -top key on it), and the
// normalized text of a known statement.
func TestFingerprintDigestIsFNV1a(t *testing.T) {
	for _, q := range append(append([]string{}, distinctCorpus...), "VM(name='it''s')") {
		d, norm := fingerprint(t, q)
		h := fnv.New64a()
		h.Write([]byte(norm))
		if want := fmt.Sprintf("%016x", h.Sum64()); d != want {
			t.Errorf("%q: digest %s, FNV-1a of %q is %s", q, d, norm, want)
		}
	}
	const q = "retrieve P From PATHS P where P matches VM(name='it''s', id=7)->Host(speed=1.5)"
	want := "RETRIEVE P FROM PATHS P WHERE P MATCHES VM ( name = ? , id = ? ) -> Host ( speed = ? )"
	if _, norm := fingerprint(t, q); norm != want {
		t.Errorf("normalized %q\n  got  %q\n  want %q", q, norm, want)
	}
}

// TestFingerprintStabilityFuzz drives randomized literal substitutions
// through statement templates: every instantiation of one template must
// digest identically, and no two distinct templates may ever collide.
func TestFingerprintStabilityFuzz(t *testing.T) {
	templates := []func(r *rand.Rand) string{
		func(r *rand.Rand) string { return fmt.Sprintf("Host(id=%d)", r.Intn(1_000_000)) },
		func(r *rand.Rand) string { return fmt.Sprintf("VM(name='%s') -> Host", randWord(r)) },
		func(r *rand.Rand) string {
			return fmt.Sprintf("RETRIEVE PATHS P FROM VM -> Switch -> Host WHERE P AT '2017-02-%02d %02d:00:00'",
				1+r.Intn(28), r.Intn(24))
		},
		func(r *rand.Rand) string { return fmt.Sprintf("Port(speed=%d.%d)", r.Intn(100), r.Intn(10)) },
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT count FROM VM(id=%d) -> Host(id=%d)", r.Intn(999), r.Intn(999))
		},
	}
	r := rand.New(rand.NewSource(42))
	digests := make([]string, len(templates))
	for ti, tmpl := range templates {
		d0, _ := fingerprint(t, tmpl(r))
		digests[ti] = d0
		for i := 0; i < 200; i++ {
			if d, norm := fingerprint(t, tmpl(r)); d != d0 {
				t.Fatalf("template %d unstable: digest %s (norm %q) != %s", ti, d, norm, d0)
			}
		}
	}
	for i := range digests {
		for j := i + 1; j < len(digests); j++ {
			if digests[i] == digests[j] {
				t.Fatalf("templates %d and %d collided on %s", i, j, digests[i])
			}
		}
	}
}

func randWord(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz-0123456789"
	n := 1 + r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}
