package graph

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/temporal"
)

// writeSchema is testSchema plus an abstract node class.
func writeSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	must := func(_ *schema.Class, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.DefineNode("VM", "", schema.Field{Name: "status", Type: schema.TypeString}))
	must(s.DefineNode("Host", ""))
	must(s.DefineNode("VNF", ""))
	must(s.DefineNode("Appliance", ""))
	must(s.DefineEdge("HostedOn", ""))
	must(s.DefineEdge("ConnectsTo", ""))
	if err := s.SetAbstract("Appliance"); err != nil {
		t.Fatal(err)
	}
	s.AllowEdge("HostedOn", "VM", "Host")
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// loggedStore returns an empty store whose hook keeps a copy of every
// record it is handed, in log order.
func loggedStore(t *testing.T) (*Store, *[]Mutation) {
	t.Helper()
	st := NewStore(writeSchema(t), temporal.NewManualClock(t0), nil)
	var log []Mutation
	st.SetMutationHook(func(_ context.Context, ms []*Mutation) error {
		for _, m := range ms {
			log = append(log, *m)
		}
		return nil
	})
	return st, &log
}

func historyOf(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayAndLiveRejectAlike: a live write and the replay of the same
// record share one validating body, so every rejection happens on both
// paths, and neither path leaves a trace — no version, no UID, no unique
// claim, no log record.
func TestReplayAndLiveRejectAlike(t *testing.T) {
	st, log := loggedStore(t)
	vm := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "Green"})
	host := mustInsertNode(t, st, "Host", Fields{"id": 2})
	vnf := mustInsertNode(t, st, "VNF", Fields{"id": 3})
	gone := mustInsertNode(t, st, "Host", Fields{"id": 4})
	link := mustInsertEdge(t, st, "HostedOn", vm, host, Fields{"id": 10})
	if err := st.Delete(gone); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		m    Mutation
	}{
		{"unknown class", Mutation{Op: OpInsertNode, Class: "Router", Fields: Fields{"id": 100}}},
		{"abstract class", Mutation{Op: OpInsertNode, Class: "Appliance", Fields: Fields{"id": 100}}},
		{"edge class as node", Mutation{Op: OpInsertNode, Class: "HostedOn", Fields: Fields{"id": 100}}},
		{"node class as edge", Mutation{Op: OpInsertEdge, Class: "Host", Src: vm, Dst: host, Fields: Fields{"id": 100}}},
		{"unknown source", Mutation{Op: OpInsertEdge, Class: "ConnectsTo", Src: 999, Dst: host, Fields: Fields{"id": 100}}},
		{"dead target", Mutation{Op: OpInsertEdge, Class: "ConnectsTo", Src: vm, Dst: gone, Fields: Fields{"id": 100}}},
		{"edge as endpoint", Mutation{Op: OpInsertEdge, Class: "ConnectsTo", Src: link, Dst: host, Fields: Fields{"id": 100}}},
		{"forbidden edge", Mutation{Op: OpInsertEdge, Class: "HostedOn", Src: vnf, Dst: host, Fields: Fields{"id": 100}}},
		{"duplicate unique on insert", Mutation{Op: OpInsertNode, Class: "Host", Fields: Fields{"id": 3}}},
		{"duplicate unique on update", Mutation{Op: OpUpdate, UID: host, Fields: Fields{"id": 1}}},
		{"invalid record on update", Mutation{Op: OpUpdate, UID: vm, Fields: Fields{"id": 1, "bogus": true}}},
		{"update of unknown", Mutation{Op: OpUpdate, UID: 999, Fields: Fields{"id": 100}}},
		{"update of deleted", Mutation{Op: OpUpdate, UID: gone, Fields: Fields{"id": 4}}},
		{"delete of unknown", Mutation{Op: OpDelete, UID: 999}},
		{"unknown op", Mutation{Op: MutationOp(9), UID: vm}},
	}
	logged := len(*log)
	before := historyOf(t, st)
	live, versions := st.Counts()
	for _, c := range cases {
		m := c.m
		if err := st.Mutate(context.Background(), &m); err == nil {
			t.Errorf("%s: live write accepted", c.name)
		}
		r := c.m // as a log would carry it: UID and At stamped
		if r.Op.isInsert() {
			_, r.UID = st.UIDRange()
		}
		r.At = temporal.Nanos(st.Now().Add(time.Hour))
		if applied, err := st.ApplyMutation(&r); err == nil || applied != 0 {
			t.Errorf("%s: replay = (%v, %v), want a rejection", c.name, applied, err)
		}
		if l, v := st.Counts(); l != live || v != versions {
			t.Errorf("%s: counts moved from (%d, %d) to (%d, %d)", c.name, live, versions, l, v)
		}
		if !bytes.Equal(historyOf(t, st), before) {
			t.Errorf("%s: rejected write changed the stored history", c.name)
		}
		if vs := st.CheckInvariants(); len(vs) != 0 {
			t.Errorf("%s: invariants violated: %v", c.name, vs)
		}
	}
	if len(*log) != logged {
		t.Errorf("rejected writes reached the log: %v", (*log)[logged:])
	}
}

// TestExhaustedClockRejectsWrites: a clock pinned past 2262 issues one
// stamp, Forever−1, and every later write is refused whole — a single
// write and a batch alike — rather than stamped at Forever, where its
// version would be empty and a closed one would stay current. A replayed
// record stamped at Forever is refused too.
func TestExhaustedClockRejectsWrites(t *testing.T) {
	st, log := loggedStore(t)
	st.clock.SetNow(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC))
	vm := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "Green"})
	if p := st.Object(vm).Versions[0].Period; p != temporal.Between(temporal.Forever-1, temporal.Forever) {
		t.Fatalf("first write past 2262 has period %+v", p)
	}
	logged, before := len(*log), historyOf(t, st)
	refuse := func(name string, ms ...*Mutation) {
		t.Helper()
		if err := st.Mutate(context.Background(), ms...); !errors.Is(err, temporal.ErrExhausted) {
			t.Errorf("%s: err = %v, want ErrExhausted", name, err)
		}
	}
	refuse("update", &Mutation{Op: OpUpdate, UID: vm, Fields: Fields{"id": 1, "status": "Red"}})
	refuse("batch", &Mutation{Op: OpInsertNode, Class: "Host", Fields: Fields{"id": 2}},
		&Mutation{Op: OpDelete, UID: vm})
	if !bytes.Equal(historyOf(t, st), before) || len(*log) != logged {
		t.Error("a refused write changed the history or reached the log")
	}
	if vs := st.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants violated: %v", vs)
	}
	r := &Mutation{Op: OpUpdate, UID: vm, Fields: Fields{"id": 1, "status": "Red"}, At: temporal.Forever}
	if applied, err := st.ApplyMutation(r); err == nil || applied != 0 {
		t.Errorf("replay stamped at Forever = (%d, %v), want a rejection", applied, err)
	}
	if !bytes.Equal(historyOf(t, st), before) {
		t.Error("a refused replay changed the history")
	}
}

// TestReplayOverlapIsSkipped replays a store's own log into it — the
// checkpoint/segment overlap recovery meets — and every record must be
// recognised as already reflected: an insert of an existing UID, an
// update whose version exists, a delete of a closed object.
func TestReplayOverlapIsSkipped(t *testing.T) {
	st, log := loggedStore(t)
	vm := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "Green"})
	host := mustInsertNode(t, st, "Host", Fields{"id": 2})
	mustInsertEdge(t, st, "HostedOn", vm, host, Fields{"id": 10})
	if err := st.Update(vm, Fields{"id": 1, "status": "Red"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(host); err != nil {
		t.Fatal(err)
	}
	before := historyOf(t, st)
	for i := range *log {
		m := (*log)[i]
		if applied, err := st.ApplyMutation(&m); err != nil || applied != 0 {
			t.Errorf("record %d (%s uid %d): replay = (%v, %v), want (0, nil)", i, m.Op, m.UID, applied, err)
		}
	}
	if !bytes.Equal(historyOf(t, st), before) {
		t.Error("replaying the store's own log changed its history")
	}
	// An insert of a present UID under another class is a diverged log,
	// not an overlap.
	m := (*log)[0]
	m.Class = "Host"
	if _, err := st.ApplyMutation(&m); err == nil {
		t.Error("insert of an existing UID under another class was skipped")
	}
}

// TestReplayReproducesLiveHistory: the records the hook logged, replayed
// into an empty store, rebuild the live store's history byte for byte,
// and each record carries only what its op defines.
func TestReplayReproducesLiveHistory(t *testing.T) {
	st, log := loggedStore(t)
	vm := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "Green"})
	host := mustInsertNode(t, st, "Host", Fields{"id": 2})
	em := &Mutation{Op: OpInsertEdge, Class: "HostedOn", Src: vm, Dst: host, Fields: Fields{"id": 10}}
	if err := st.Mutate(context.Background(), em); err != nil || em.UID == 0 {
		t.Fatalf("edge insert = (%d, %v)", em.UID, err)
	}
	edge := em.UID
	if err := st.Mutate(context.Background(), &Mutation{Op: OpUpdate, UID: vm, Class: "Host", Src: host, Fields: Fields{"id": 1, "status": "Red"}}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := st.Mutate(context.Background(), &Mutation{Op: OpDelete, UID: host, Fields: Fields{"id": 2}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := st.Delete(host); err != nil {
		t.Fatalf("second delete: %v", err)
	}
	if len(*log) != 5 {
		t.Fatalf("logged %d records, want 5 (a repeated delete logs nothing)", len(*log))
	}
	if got := (*log)[2]; got.UID != edge || got.At == 0 {
		t.Errorf("edge record = %+v, want uid %d and a stamped time", got, edge)
	}
	if got := (*log)[3]; got.Class != "" || got.Src != 0 {
		t.Errorf("update record carries insert fields: %+v", got)
	}
	if got := (*log)[4]; got.Fields != nil {
		t.Errorf("delete record carries fields: %+v", got)
	}

	replica := NewStore(writeSchema(t), temporal.NewManualClock(t0), nil)
	for i := range *log {
		m := (*log)[i]
		if applied, err := replica.ApplyMutation(&m); err != nil || applied != 1 {
			t.Fatalf("record %d (%s uid %d): replay = (%v, %v)", i, m.Op, m.UID, applied, err)
		}
	}
	if !bytes.Equal(historyOf(t, replica), historyOf(t, st)) {
		t.Error("replayed history differs from the live store's")
	}
}

// TestStoreGaugesFollowCounts: store.live_objects and store.versions are
// read at scrape time, so every write shows up without a refresh.
func TestStoreGaugesFollowCounts(t *testing.T) {
	clock := temporal.NewManualClock(t0)
	reg := obs.NewRegistry()
	st := NewStore(testSchema(t), clock, reg)
	check := func(after string) {
		t.Helper()
		live, versions := st.Counts()
		if gotLive, gotVersions := sample(reg, "store.live_objects"), sample(reg, "store.versions"); gotLive != float64(live) || gotVersions != float64(versions) {
			t.Errorf("after %s: gauges read (%v, %v), Counts() = (%d, %d)", after, gotLive, gotVersions, live, versions)
		}
	}
	uid := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "Green"})
	check("insert")
	clock.Advance(time.Hour)
	if err := st.Update(uid, Fields{"id": 1, "status": "Red"}); err != nil {
		t.Fatal(err)
	}
	check("update")
	if err := st.Delete(uid); err != nil {
		t.Fatal(err)
	}
	check("delete")
}

// sample reads the unlabeled metric name from reg's Prometheus
// exposition; -1 when it is absent.
func sample(reg *obs.Registry, name string) float64 {
	var sb strings.Builder
	obs.WritePrometheus(&sb, reg)
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, obs.PromName(name)+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return -1
			}
			return f
		}
	}
	return -1
}
