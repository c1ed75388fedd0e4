package core

import (
	"context"
	"testing"

	"repro/internal/stats"
)

func TestPreparedCarriesDigest(t *testing.T) {
	db, _, _ := openDemo(t, BackendGremlin)
	st := stats.NewStore(16)
	db.SetStatementStats(st)

	p1, err := db.Prepare("Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare("Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1002)")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Digest() == "" || p1.Digest() != p2.Digest() {
		t.Fatalf("literal-only variants should share a digest: %q vs %q", p1.Digest(), p2.Digest())
	}
	res, err := p1.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != p1.Digest() {
		t.Fatalf("result digest %q != prepared digest %q", res.Digest, p1.Digest())
	}
	// Ad-hoc Query stamps the same digest as the prepared path.
	res2, err := db.Query("Select source(P).name From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Digest != p1.Digest() {
		t.Fatalf("ad-hoc digest %q != prepared digest %q", res2.Digest, p1.Digest())
	}
	snap := st.Snapshot(stats.SortCalls, 0)
	if len(snap.Statements) != 1 || snap.Statements[0].Calls != 2 {
		t.Fatalf("stats store should hold one digest with 2 calls: %+v", snap)
	}
	if snap.Statements[0].Statement == "" || snap.Statements[0].EdgesScanned == 0 {
		t.Fatalf("aggregate missing normalized text or edges: %+v", snap.Statements[0])
	}
}
