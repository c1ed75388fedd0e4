package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/temporal"
)

// openWALDemo opens a WAL-backed database in dir; build controls whether
// the demo topology is loaded (first open) or expected to come back from
// recovery (reopen).
func openWALDemo(t *testing.T, dir string, build bool) *DB {
	t.Helper()
	db, err := Open(netmodel.MustSchema(),
		WithClock(temporal.NewManualClock(t0)), WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	if build {
		if _, err := netmodel.BuildDemo(db.Store(), 1000); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestWALRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db := openWALDemo(t, dir, true)
	if db.WAL() == nil {
		t.Fatal("WithWAL did not attach a manager")
	}
	// Mutate past the demo build so recovery covers updates and deletes;
	// clock advances give the AT queries below clean slices between the
	// insert, the update, and the delete.
	db.Store().Clock().Advance(time.Hour)
	vm, err := db.InsertNode("VM", graph.Fields{"id": 9001, "name": "vm-9001", "status": "Green"})
	if err != nil {
		t.Fatal(err)
	}
	db.Store().Clock().Advance(time.Hour)
	if err := db.Update(vm, graph.Fields{"id": 9001, "name": "vm-9001", "status": "Red"}); err != nil {
		t.Fatal(err)
	}
	victim, ok := db.Store().LookupUnique(schema.NodeRoot, "id", 1001)
	if !ok {
		t.Fatal("demo host 1001 missing")
	}
	if err := db.Delete(victim); err != nil {
		t.Fatal(err)
	}
	live, versions := db.Store().Counts()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT rebuilding: everything must come back from the log.
	db2 := openWALDemo(t, dir, false)
	defer db2.Close()
	stats := db2.RecoveryStats()
	if stats.RecordsApplied == 0 {
		t.Fatalf("nothing recovered: %+v", stats)
	}
	if l2, v2 := db2.Store().Counts(); l2 != live || v2 != versions {
		t.Fatalf("recovered counts (%d live, %d versions) != original (%d, %d)", l2, v2, live, versions)
	}
	if vs := db2.Store().CheckInvariants(); len(vs) != 0 {
		t.Fatalf("recovered store violates invariants: %v", vs)
	}

	// The deleted host is gone from current queries but its full version
	// history survived recovery.
	cur, err := db2.Query("Select source(H).name From PATHS H Where H MATCHES Host(id=1001)")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Rows) != 0 {
		t.Errorf("deleted host still visible now: %d rows", len(cur.Rows))
	}
	host := db2.Store().Object(victim)
	if host == nil || host.Current() != nil {
		t.Fatal("deleted host missing or resurrected after recovery")
	}
	if v := host.VersionAt(t0.Add(30 * time.Minute)); v == nil || fmt.Sprint(v.Fields["id"]) != "1001" {
		t.Errorf("deleted host's pre-delete version lost: %+v", v)
	}

	// The updated VM's past is queryable at a slice before the update.
	past, err := db2.Query(fmt.Sprintf(
		"AT '%s' Select source(V).name From PATHS V Where V MATCHES VM(status='Green', id=9001)",
		t0.Add(90*time.Minute).Format("2006-01-02 15:04:05")))
	if err != nil {
		t.Fatal(err)
	}
	if len(past.Rows) != 1 {
		t.Errorf("updated VM's past state lost: %d rows", len(past.Rows))
	}
	red, err := db2.Query("Select source(V).name From PATHS V Where V MATCHES VM(status='Red')")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range red.Rows {
		if len(row.Values()) > 0 && fmt.Sprint(row.Values()[0]) == "vm-9001" {
			found = true
		}
	}
	if !found {
		t.Error("recovered update not visible in query results")
	}

	// The recovered database keeps accepting durable writes.
	if _, err := db2.InsertNode("VM", graph.Fields{"id": 9002, "name": "vm-9002", "status": "Green"}); err != nil {
		t.Fatal(err)
	}
}

func TestWALCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := openWALDemo(t, dir, true)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the rotated segment.
	if _, err := db.InsertNode("VM", graph.Fields{"id": 9100, "name": "vm-9100", "status": "Green"}); err != nil {
		t.Fatal(err)
	}
	live, versions := db.Store().Counts()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	db2 := openWALDemo(t, dir, false)
	defer db2.Close()
	db2.Instrument(reg)
	stats := db2.RecoveryStats()
	if !stats.CheckpointLoaded {
		t.Fatalf("checkpoint not used: %+v", stats)
	}
	if l2, v2 := db2.Store().Counts(); l2 != live || v2 != versions {
		t.Fatalf("recovered counts (%d live, %d versions) != original (%d, %d)", l2, v2, live, versions)
	}
	if reg.Counter("wal.recoveries").Value() != 1 {
		t.Error("recovery not visible in metrics")
	}
}

func TestCheckpointWithoutWAL(t *testing.T) {
	db, err := Open(netmodel.MustSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("Checkpoint without WithWAL succeeded")
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close without WAL: %v", err)
	}
}
