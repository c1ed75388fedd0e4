package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/temporal"
)

// churn drives n randomized mutations (inserts, updates, deletes with
// cascades, clock advances) against the store, all derived from seed.
func churn(t *testing.T, st *Store, clock *temporal.Clock, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nextID := int(seed)*1_000_000 + 1
	var nodes, edges []UID
	prune := func(uids []UID) []UID {
		out := uids[:0]
		for _, uid := range uids {
			if st.Object(uid).Current() != nil {
				out = append(out, uid)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			clock.Advance(time.Duration(1+rng.Intn(300)) * time.Second)
		}
		switch p := rng.Float64(); {
		case p < 0.35 || len(nodes) < 2:
			class, fields := "Host", Fields{"id": nextID}
			if rng.Intn(2) == 0 {
				class, fields = "VM", Fields{"id": nextID, "status": "Green"}
			}
			nextID++
			uid, err := st.InsertNode(class, fields)
			if err != nil {
				t.Fatalf("churn %d: insert: %v", i, err)
			}
			nodes = append(nodes, uid)
		case p < 0.55:
			uid, err := st.InsertEdge("ConnectsTo",
				nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], Fields{"id": nextID})
			nextID++
			if err != nil {
				t.Fatalf("churn %d: insert edge: %v", i, err)
			}
			edges = append(edges, uid)
		case p < 0.80:
			uid := nodes[rng.Intn(len(nodes))]
			obj := st.Object(uid)
			fields := obj.Current().Fields.Clone()
			if obj.Class.Name == "VM" {
				fields["status"] = []string{"Green", "Yellow", "Red"}[rng.Intn(3)]
			}
			if err := st.Update(uid, fields); err != nil {
				t.Fatalf("churn %d: update: %v", i, err)
			}
		default:
			victim := nodes[rng.Intn(len(nodes))]
			if len(edges) > 0 && rng.Intn(2) == 0 {
				victim = edges[rng.Intn(len(edges))]
			}
			if err := st.Delete(victim); err != nil {
				t.Fatalf("churn %d: delete: %v", i, err)
			}
			nodes, edges = prune(nodes), prune(edges)
		}
	}
}

// TestHistoryChurnProperty is the persistence property test: under
// randomized mutation churn, WriteHistory -> LoadHistory reproduces an
// indistinguishable store — byte-identical re-serialization, equal
// counts and UID range, identical per-object version histories, and a
// clean invariant check.
func TestHistoryChurnProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 17, 1234}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		st, clock := newTestStore(t)
		churn(t, st, clock, seed, 300)

		var first bytes.Buffer
		if err := st.WriteHistory(&first); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st2 := NewStore(testSchema(t), temporal.NewManualClock(t0), nil)
		if err := st2.LoadHistory(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var second bytes.Buffer
		if err := st2.WriteHistory(&second); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: reloaded store serializes differently", seed)
		}
		l1, v1 := st.Counts()
		l2, v2 := st2.Counts()
		if l1 != l2 || v1 != v2 {
			t.Fatalf("seed %d: counts (%d,%d) vs (%d,%d)", seed, l1, v1, l2, v2)
		}
		lo1, hi1 := st.UIDRange()
		lo2, hi2 := st2.UIDRange()
		if lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("seed %d: uid range [%d,%d] vs [%d,%d]", seed, lo1, hi1, lo2, hi2)
		}
		if vs := st2.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("seed %d: reloaded store violates invariants: %v", seed, vs)
		}

		// The reloaded store continues to accept the same churn stream.
		churn(t, st2, st2.Clock(), seed+1000, 50)
		if vs := st2.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("seed %d: post-reload churn violates invariants: %v", seed, vs)
		}
	}
}

// TestPersistTypedErrors pins the error contract of the persistence
// layer: truncation, format mismatch, and non-empty-store refusal are
// distinguishable with errors.Is / errors.As.
func TestPersistTypedErrors(t *testing.T) {
	st, _ := buildHistoryFixture(t)
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	fresh := func() *Store { return NewStore(testSchema(t), temporal.NewManualClock(t0), nil) }

	// Truncation anywhere — inside the header, between objects or inside
	// one — is ErrTruncated, so operators can tell a torn file from a
	// corrupt one.
	for cut := range len(good) {
		err := fresh().LoadHistory(bytes.NewReader(good[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d of %d: err = %v, want ErrTruncated", cut, len(good), err)
		}
	}

	// A future or foreign format tag, and the retired JSON format,
	// surface as *FormatError naming the format found.
	tagLen := len(codec.AppendString(nil, HistoryFormat))
	legacy := `{"format":"nepal-history/1","objects":0,"next_uid":1}` + "\n"
	for stream, got := range map[string]string{
		string(codec.AppendString(nil, "nepal-history/99")) + string(good[tagLen:]): "nepal-history/99",
		legacy: "nepal-history/1",
	} {
		var fe *FormatError
		if err := fresh().LoadHistory(strings.NewReader(stream)); !errors.As(err, &fe) {
			t.Errorf("format %s: err = %v, want *FormatError", got, err)
		} else if fe.Got != got || fe.Want != HistoryFormat {
			t.Errorf("FormatError = %+v, want Got %q", fe, got)
		}
	}

	// Loading into a non-empty store is ErrStoreNotEmpty.
	dirty := fresh()
	if _, err := dirty.InsertNode("Host", Fields{"id": 5}); err != nil {
		t.Fatal(err)
	}
	if err := dirty.LoadHistory(bytes.NewReader(good)); !errors.Is(err, ErrStoreNotEmpty) {
		t.Errorf("non-empty store err = %v, want ErrStoreNotEmpty", err)
	}

	// Trailing data after the declared object count is rejected, as is a
	// declared count one short of the objects that follow.
	if err := fresh().LoadHistory(bytes.NewReader(append(slices.Clip(good), 0))); err == nil {
		t.Error("trailing data accepted")
	}
	short := editHistory(t, good, func(h *history) {})
	short[tagLen]-- // the object count, one byte for the fixture
	if err := fresh().LoadHistory(bytes.NewReader(short)); err == nil {
		t.Error("an undeclared trailing object accepted")
	}

	// ReadSnapshot distinguishes truncation the same way.
	if _, err := ReadSnapshot(strings.NewReader(`{"nodes":[{"class":"VM"`)); !errors.Is(err, ErrTruncated) {
		t.Errorf("snapshot truncation err = %v, want ErrTruncated", err)
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"nodes":[]}{"nodes":[]}`)); err == nil {
		t.Error("snapshot trailing data accepted")
	}
}
