package repl

import (
	"math"
	"math/big"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzFeedParams: the feed parameter readers never panic, read a value
// exactly when it is a decimal integer in [0, MaxInt] and refuse every
// other, and clamp every wait into [0, MaxWait].
func FuzzFeedParams(f *testing.F) {
	for _, v := range []string{"", "0", "007", "20000", "60001", "-1", "+5", "abc", "1e3", " 1",
		"9223372036854775807", "9223372036854775808", "99999999999999999999"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		q := url.Values{"max_events": {v}, "wait_ms": {v}}
		n, ok, err := Param(q, "max_events")
		wait, werr := Wait(q)

		value, wellFormed := new(big.Int), v == ""
		if v != "" && strings.Trim(v, "0123456789") == "" {
			value.SetString(v, 10)
			wellFormed = value.Cmp(big.NewInt(math.MaxInt)) <= 0
		}
		if (err == nil) != wellFormed || (werr == nil) != wellFormed {
			t.Fatalf("%q: Param error %v, Wait error %v; well-formed %v", v, err, werr, wellFormed)
		}
		if wait < 0 || wait > MaxWait {
			t.Fatalf("%q: wait %v outside [0, %v]", v, wait, MaxWait)
		}
		if err != nil {
			return
		}
		if ok != (v != "") || big.NewInt(int64(n)).Cmp(value) != 0 {
			t.Fatalf("%q: read %d (present %v)", v, n, ok)
		}
		want := MaxWait
		if capMS := big.NewInt(int64(MaxWait / time.Millisecond)); value.Cmp(capMS) < 0 {
			want = time.Duration(value.Int64()) * time.Millisecond
		}
		if wait != want {
			t.Fatalf("%q: wait %v, want %v", v, wait, want)
		}
	})
}
