package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
)

// TestPooledBodyNotRetained: do reads every response into a pooled
// buffer, so what one request decodes — rows, rendered pathways, an
// APIError's message — must survive later requests overwriting that
// buffer with bodies of the same length.
func TestPooledBodyNotRetained(t *testing.T) {
	f := newFakeEndpoint(t)
	c := New(f.srv.URL)
	ctx := context.Background()
	answer := func(tag string) {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"columns":["P","name-%[1]s"],"rows":[{"values":[`+
				`{"pathway":{"elems":[1,2,3],"rendered":"vm-%[1]s -[HostedOn]-> host-%[1]s"}},`+
				`{"scalar":"name-%[1]s"}]}],"explain":"plan-%[1]s","digest":"digest-%[1]s"}`, tag)
		})
	}
	refuse := func(tag string) {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":{"code":"parse_error","message":"bad token %s"}}`, tag)
		})
	}
	refuseRaw := func(tag string) {
		f.set(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			io.WriteString(w, "proxy said "+tag)
		})
	}

	answer("aaaa")
	res, err := c.Query(ctx, "q", nil)
	if err != nil {
		t.Fatal(err)
	}
	refuse("aaaa")
	_, errEnvelope := c.Query(ctx, "q", nil)
	refuseRaw("aaaa")
	_, errRaw := c.Query(ctx, "q", nil)

	for i := 0; i < 8; i++ {
		answer("bbbb")
		if _, err := c.Query(ctx, "q", nil); err != nil {
			t.Fatal(err)
		}
		refuse("bbbb")
		c.Query(ctx, "q", nil)
		refuseRaw("bbbb")
		c.Query(ctx, "q", nil)
	}

	if want := []string{"P", "name-aaaa"}; !reflect.DeepEqual(res.Columns, want) {
		t.Errorf("columns = %q, want %q", res.Columns, want)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Values) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	p, ok := res.Rows[0].Values[0].(*Pathway)
	if !ok || p.Rendered != "vm-aaaa -[HostedOn]-> host-aaaa" {
		t.Errorf("pathway = %+v", res.Rows[0].Values[0])
	}
	if got := res.Rows[0].Values[1]; got != "name-aaaa" {
		t.Errorf("scalar = %v", got)
	}
	if res.Explain != "plan-aaaa" || res.Digest != "digest-aaaa" {
		t.Errorf("explain %q, digest %q", res.Explain, res.Digest)
	}
	var ae *APIError
	if !errors.As(errEnvelope, &ae) || ae.Message != "bad token aaaa" {
		t.Errorf("envelope error = %v", errEnvelope)
	}
	if !errors.As(errRaw, &ae) || ae.Message != "proxy said aaaa" {
		t.Errorf("raw error = %v", errRaw)
	}
}
