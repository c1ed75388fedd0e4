package graph_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/temporal"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/service-churn.history from the current code")

// churnedService builds the service fixture at the given size with days
// of churn history, from the same fixed start time as the benchmark's.
func churnedService(t testing.TB, cfg workload.ServiceConfig, days int) *graph.Store {
	t.Helper()
	clock := temporal.NewManualClock(bench.LoadTime)
	st := graph.NewStore(netmodel.MustSchema(), clock, nil)
	svc, err := workload.BuildService(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	churn := workload.DefaultServiceChurn()
	churn.Days = days
	if err := workload.ApplyServiceChurn(st, svc, clock, churn); err != nil {
		t.Fatal(err)
	}
	return st
}

// oracleService is the benchmark's oracle-scale service fixture: small
// enough for plan.ReferenceEval, with four days of churn.
func oracleService(t testing.TB) *graph.Store {
	return churnedService(t, workload.ServiceConfig{Seed: 1, VNFs: 3, VFCsPerVNF: 1, IdleVMs: 0,
		Hosts: 2, TORs: 2, Spines: 1, VNets: 3, VRouters: 1}, 4)
}

// TestHistoryGolden pins the checkpoint format's bytes: the churned
// oracle-scale service fixture must write exactly the checked-in
// checkpoint, which was written before the store kept versions as slot
// records, and loading that checkpoint and writing it again must
// reproduce it. Run with -update-golden to rewrite the file after a
// deliberate format change.
func TestHistoryGolden(t *testing.T) {
	path := filepath.Join("testdata", "service-churn.history")
	var buf bytes.Buffer
	if err := oracleService(t).WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("the fixture writes %d bytes that differ from the %d-byte golden checkpoint", buf.Len(), len(golden))
	}
	st := graph.NewStore(netmodel.MustSchema(), nil, nil)
	if err := st.LoadHistory(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("LoadHistory then WriteHistory changed the golden checkpoint")
	}
}

// TestBytesPerVersion bounds the store's live heap per stored version on
// a churned service fixture, so a layout regression — a field map per
// version again — fails here, not only in the benchmark's heap figure.
// The bound is the measured value (go1.24, amd64) plus 20%.
func TestBytesPerVersion(t *testing.T) {
	const bound = 1.2 * 321 // measured B/version
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	st := churnedService(t, workload.DefaultServiceConfig(), 60)
	after := heap()
	_, versions := st.Counts()
	perVersion := float64(after-before) / float64(versions)
	runtime.KeepAlive(st)
	t.Logf("%d versions, %.0f B/version (bound %.0f)", versions, perVersion, bound)
	if perVersion > bound {
		t.Fatalf("the store holds %.0f B per version, over the %.0f B bound", perVersion, bound)
	}
}
