package watch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/workload"
)

// patchRPEs and patchProjections compose the patchable statements the
// patch tests draw: repetition, alternation, predicates, edge atoms whose
// endpoint nodes no atom consumes, bridges that skip an element, and
// projections whose rows repeat across pathways (the names of a host's
// VMs' hosts, a length).
var (
	patchRPEs = []string{
		"VM(status='Red')->OnServer()->Host()",
		"VM()->OnServer()->Host(status='Down')",
		"VFC()->[Vertical()]{1,3}->Host()",
		"VFC()->VM()->Host()",
		"(VM(status='Red')|Host(status='Down'))",
		"OnServer()",
		"OnVM()->OnServer()",
		"Host(status='Down')->[PhysicalLink()]{1,2}->Switch()",
		"VNF()->ComposedOf()->VFC()->OnVM()->VM(status='Red')",
		"[VirtualLink()]{1,2}",
		"(OnVM()|OnServer())",
		"VM(status='Yellow')",
	}
	patchProjections = []string{
		"Retrieve P",
		"Select source(P).name",
		"Select target(P).name",
		"Select len(P)",
		"Select source(P).name, target(P).name",
		"Select target(P).name, len(P)",
	}
)

// nonPatchable are statements the hub must evaluate in full: an
// aggregate, a NOT EXISTS subquery, a time binding and a join.
var nonPatchable = []string{
	"Select count(P) From PATHS P Where P MATCHES VM(status='Red')->OnServer()->Host()",
	`Retrieve V From PATHS V Where V MATCHES VM(status='Red') And NOT EXISTS(
		Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host() And source(P) = source(V))`,
	"Select target(P).name From PATHS P(@'2000-01-01 00:00:00') Where P MATCHES VM()->OnServer()->Host()",
	`Select source(P).name, target(Q).name From PATHS P, PATHS Q
		Where P MATCHES VM(status='Red')->OnServer()->Host() And Q MATCHES Host()->PhysicalLink()->Switch()
		And target(P) = source(Q)`,
}

// patchStatement composes patchable statement i.
func patchStatement(i int) string {
	rpe := patchRPEs[i%len(patchRPEs)]
	proj := patchProjections[(i/len(patchRPEs))%len(patchProjections)]
	return proj + " From PATHS P Where P MATCHES " + rpe
}

// patchRig drives hubs over a small service fixture with a schema-valid
// mutation stream and checks, after each batch, that every subscriber's
// accumulated deltas equal its statement's rows in a fresh evaluation.
type patchRig struct {
	t    testing.TB
	db   *core.DB
	svc  *workload.Service
	subs []*rigSub
	hubs []*Hub
	id   int64 // the next id field an insert takes
	vms  []graph.UID
}

// rigSub is one subscription with the rows its deltas add up to.
type rigSub struct {
	hub  *Hub
	sub  *Subscription
	src  string
	rows map[string]bool
}

// smallService is a service fixture a few dozen nodes across, so that a
// random write often touches a standing query's pathways.
func smallService() workload.ServiceConfig {
	return workload.ServiceConfig{Seed: 7, VNFs: 3, VFCsPerVNF: 3, IdleVMs: 3, Hosts: 5,
		TORs: 2, Spines: 1, VNets: 3, VRouters: 1, VMsPerNet: 2}
}

func newPatchRig(t testing.TB, cfg workload.ServiceConfig) *patchRig {
	t.Helper()
	db, err := core.Open(netmodel.MustSchema(), core.WithWALOptions(t.TempDir(), wal.Options{NoSync: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := workload.BuildService(db.Store(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &patchRig{t: t, db: db, svc: svc, id: 1 << 30, vms: slices.Clone(svc.VMs)}
	// Some VMs start Red and some hosts Down, so the predicates select.
	for i, vm := range svc.VMs {
		if i%3 == 0 {
			r.mutate(r.update(vm, "status", "Red"))
		}
	}
	for i, h := range svc.Hosts {
		if i%2 == 0 {
			r.mutate(r.update(h, "status", "Down"))
		}
	}
	return r
}

// hub starts a hub over the rig's log with a subscription per statement.
func (r *patchRig) hub(reg *obs.Registry, stmts ...string) *Hub {
	r.t.Helper()
	h := NewHub(r.db, NewWALFeed(r.db.WAL(), r.db.Store()), reg)
	r.t.Cleanup(h.Close)
	r.hubs = append(r.hubs, h)
	for i, src := range stmts {
		sub, err := h.Register(fmt.Sprintf("q%d", i), src, 4096)
		if err != nil {
			r.t.Fatalf("registering %q: %v", src, err)
		}
		r.subs = append(r.subs, &rigSub{hub: h, sub: sub, src: src, rows: map[string]bool{}})
	}
	return h
}

func (r *patchRig) mutate(ms ...*graph.Mutation) error {
	return r.db.Store().Mutate(context.Background(), ms...)
}

// live returns the current fields of uid, or nil when it is deleted.
func (r *patchRig) live(uid graph.UID) graph.Fields {
	obj := r.db.Store().Object(uid)
	if obj == nil || obj.Current() == nil {
		return nil
	}
	return obj.Current().Fields
}

// update returns an update of uid setting one field, or nil when uid is
// deleted.
func (r *patchRig) update(uid graph.UID, field string, value any) *graph.Mutation {
	f := r.live(uid)
	if f == nil {
		return nil
	}
	f = f.Clone()
	f[field] = value
	return &graph.Mutation{Op: graph.OpUpdate, UID: uid, Fields: f}
}

// pickLive returns a live element of uids, or false after a few misses.
func (r *patchRig) pickLive(pick func(int) int, uids []graph.UID) (graph.UID, bool) {
	for range 4 {
		if u := uids[pick(len(uids))]; r.live(u) != nil {
			return u, true
		}
	}
	return 0, false
}

// op draws one write: updates of VM, VFC and host records, VMs and hosts
// coming and going, and placement, composition and fabric edges inserted
// and deleted. It returns nil when its draw found nothing live to write.
func (r *patchRig) op(pick func(int) int) *graph.Mutation {
	statuses := []string{"Green", "Red", "Yellow"}
	newID := func() int64 { r.id++; return r.id }
	switch pick(12) {
	case 0, 1, 2:
		if vm, ok := r.pickLive(pick, r.vms); ok {
			if pick(4) == 0 {
				return r.update(vm, "name", fmt.Sprintf("vm-renamed-%d", newID()))
			}
			return r.update(vm, "status", statuses[pick(3)])
		}
	case 3:
		if h, ok := r.pickLive(pick, r.svc.Hosts); ok {
			if pick(3) == 0 {
				return r.update(h, "name", fmt.Sprintf("host-renamed-%d", newID()))
			}
			return r.update(h, "status", []string{"Active", "Down"}[pick(2)])
		}
	case 4:
		if vfc, ok := r.pickLive(pick, r.svc.VFCs); ok {
			return r.update(vfc, "name", fmt.Sprintf("vfc-renamed-%d", newID()))
		}
	case 5:
		return &graph.Mutation{Op: graph.OpInsertNode, Class: netmodel.NodeClassOfVMKind(pick(3)),
			Fields: graph.Fields{"id": newID(), "name": fmt.Sprintf("vm-new-%d", r.id), "status": statuses[pick(3)]}}
	case 6:
		vm, ok1 := r.pickLive(pick, r.vms)
		h, ok2 := r.pickLive(pick, r.svc.Hosts)
		if ok1 && ok2 {
			return &graph.Mutation{Op: graph.OpInsertEdge, Class: netmodel.OnServer, Src: vm, Dst: h, Fields: graph.Fields{"id": newID()}}
		}
	case 7:
		vfc, ok1 := r.pickLive(pick, r.svc.VFCs)
		vm, ok2 := r.pickLive(pick, r.vms)
		if ok1 && ok2 {
			return &graph.Mutation{Op: graph.OpInsertEdge, Class: netmodel.OnVM, Src: vfc, Dst: vm, Fields: graph.Fields{"id": newID()}}
		}
	case 8:
		// Delete one edge at a VM or a host: a placement, a composition,
		// an overlay or a fabric link.
		pool := r.vms
		if pick(2) == 0 {
			pool = r.svc.Hosts
		}
		if n, ok := r.pickLive(pick, pool); ok {
			st := r.db.Store()
			edges := append(slices.Clone(st.OutEdges(n)), st.InEdges(n)...)
			if e, ok := r.pickLive(pick, append(edges, n)); ok && e != n {
				return &graph.Mutation{Op: graph.OpDelete, UID: e}
			}
		}
	case 9:
		if vm, ok := r.pickLive(pick, r.vms); ok {
			return &graph.Mutation{Op: graph.OpDelete, UID: vm}
		}
	case 10:
		if h, ok := r.pickLive(pick, r.svc.Hosts); ok && pick(3) == 0 {
			return &graph.Mutation{Op: graph.OpDelete, UID: h}
		}
	case 11:
		h, ok1 := r.pickLive(pick, r.svc.Hosts)
		sw, ok2 := r.pickLive(pick, r.svc.Switches)
		if ok1 && ok2 {
			return &graph.Mutation{Op: graph.OpInsertEdge, Class: netmodel.PhysicalLink, Src: h, Dst: sw, Fields: graph.Fields{"id": newID()}}
		}
	}
	return nil
}

// batch draws a batch of one to three writes; one batch in eight ends
// with an update of an element that does not exist, which rejects it
// whole.
func (r *patchRig) batch(pick func(int) int) []*graph.Mutation {
	var ms []*graph.Mutation
	for n := 1 + pick(3); len(ms) < n; {
		if m := r.op(pick); m != nil {
			ms = append(ms, m)
		} else if pick(2) == 0 {
			break
		}
	}
	if pick(8) == 0 {
		ms = append(ms, &graph.Mutation{Op: graph.OpUpdate, UID: 1 << 40, Fields: graph.Fields{"status": "Red"}})
	}
	return ms
}

// step applies one batch and checks every subscription after it. New
// VMs join the pool the stream draws from.
func (r *patchRig) step(ms []*graph.Mutation) {
	r.t.Helper()
	if len(ms) == 0 {
		return
	}
	if err := r.mutate(ms...); err == nil {
		for _, m := range ms {
			if m.Op == graph.OpInsertNode {
				r.vms = append(r.vms, m.UID)
			}
		}
	}
	r.check()
}

// check waits for every hub to evaluate through the log's end, then
// folds each subscription's deltas into its rows and compares them with
// a fresh evaluation's.
func (r *patchRig) check() {
	r.t.Helper()
	end := r.db.WAL().NextIndex()
	for _, h := range r.hubs {
		caughtUp(r.t, h, end)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel() // Next returns what is queued, then ctx's error
	for _, rs := range r.subs {
		for {
			n, err := rs.sub.Next(done)
			if err != nil {
				break
			}
			if n.Kind != KindDelta {
				r.t.Fatalf("%q: notification %+v; want deltas only", rs.src, n)
			}
			rs.fold(r.t, n.Delta)
		}
		res, err := r.db.Query(rs.src)
		if err != nil {
			r.t.Fatalf("%q: %v", rs.src, err)
		}
		want := rs.hub.renderRows(res, nil, "").texts()
		got := make([]string, 0, len(rs.rows))
		for row := range rs.rows {
			got = append(got, row)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			r.t.Fatalf("%q at index %d: deltas add up to\n  %s\nfresh evaluation reads\n  %s",
				rs.src, end, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

// fold applies a delta to the subscription's rows, holding it to its
// contract: a removed row was there, an added one was not.
func (rs *rigSub) fold(t testing.TB, d *Delta) {
	t.Helper()
	if d.Full {
		clear(rs.rows)
	}
	for _, row := range d.Removed {
		if !rs.rows[row] {
			t.Fatalf("%q: delta at %d removes %q, which no delta added", rs.src, d.Index, row)
		}
		delete(rs.rows, row)
	}
	for _, row := range d.Added {
		if rs.rows[row] {
			t.Fatalf("%q: delta at %d adds %q twice", rs.src, d.Index, row)
		}
		rs.rows[row] = true
	}
}

// caughtUp waits until h has evaluated every record before end.
func caughtUp(t testing.TB, h *Hub, end uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		h.mu.Lock()
		cursor := h.cursor
		h.mu.Unlock()
		if cursor >= end {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hub evaluated through %d; want %d", cursor, end)
		}
	}
}

// TestPatchedEqualsFull is the patching property: over random
// schema-valid mutation streams — inserts, updates and deletes of nodes
// and edges, multi-op batches, rejected batches — every patchable
// statement's accumulated deltas equal a fresh evaluation after every
// batch, and patching is what answered them. A hub holding only
// non-patchable statements, over the same stream, never patches.
func TestPatchedEqualsFull(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newPatchRig(t, smallService())
			var stmts []string
			for range 5 {
				stmts = append(stmts, patchStatement(rng.Intn(len(patchRPEs)*len(patchProjections))))
			}
			reg, fullReg := obs.NewRegistry(), obs.NewRegistry()
			r.hub(reg, stmts...)
			r.hub(fullReg, nonPatchable...)
			r.check()
			for range 40 {
				r.step(r.batch(rng.Intn))
			}
			if n := reg.Counter("watch.standing.patched").Value(); n == 0 || n != reg.Counter("watch.standing.evals").Value() {
				t.Errorf("patched %d of %d re-evaluations; want all of them, and some", n, reg.Counter("watch.standing.evals").Value())
			}
			if n := fullReg.Counter("watch.standing.patched").Value(); n != 0 || fullReg.Counter("watch.standing.evals").Value() == 0 {
				t.Errorf("non-patchable statements: %d patched of %d re-evaluations; want 0 of some",
					n, fullReg.Counter("watch.standing.evals").Value())
			}
		})
	}
}

// TestNonPatchableStatements pins Patchable on the statements the hub
// must evaluate in full, and on the composed patchable ones.
func TestNonPatchableStatements(t *testing.T) {
	db := openMemDB(t)
	for _, src := range nonPatchable {
		if p, err := db.Prepare(src); err != nil || p.Patchable() {
			t.Errorf("%q: Patchable, or %v", src, err)
		}
	}
	for i := range len(patchRPEs) * len(patchProjections) {
		if p, err := db.Prepare(patchStatement(i)); err != nil || !p.Patchable() {
			t.Errorf("%q: not Patchable, or %v", patchStatement(i), err)
		}
	}
}

// TestFeedWritesArePatched: the benchmark's standing query over the
// service fixture, under 200 single-op writes shaped like its feed —
// VM and host updates, isolated VMs inserted and deleted — re-evaluates
// by patching every time after registration.
func TestFeedWritesArePatched(t *testing.T) {
	r := newPatchRig(t, workload.DefaultServiceConfig())
	reg := obs.NewRegistry()
	r.hub(reg, "Retrieve P From PATHS P Where P MATCHES VM(status='Red')->OnServer()->Host()")
	rng := rand.New(rand.NewSource(1))
	statuses := []string{"Green", "Red", "Yellow"}
	var isolated []graph.UID
	for k := 0; k < 200; k++ {
		var m *graph.Mutation
		switch "uuuunuuuud"[k%10] {
		case 'u':
			if k%2 == 0 {
				m = r.update(r.svc.VMs[rng.Intn(len(r.svc.VMs))], "status", statuses[rng.Intn(3)])
			} else {
				m = r.update(r.svc.Hosts[rng.Intn(len(r.svc.Hosts))], "status", []string{"Active", "Down"}[rng.Intn(2)])
			}
		case 'n':
			r.id++
			m = &graph.Mutation{Op: graph.OpInsertNode, Class: "KVMGuest",
				Fields: graph.Fields{"id": r.id, "name": fmt.Sprint("vm-feed-", r.id), "status": "Red"}}
		case 'd':
			m = &graph.Mutation{Op: graph.OpDelete, UID: isolated[0]}
			isolated = isolated[1:]
		}
		if err := r.mutate(m); err != nil {
			t.Fatal(err)
		}
		if m.Op == graph.OpInsertNode {
			isolated = append(isolated, m.UID)
		}
	}
	r.check()
	evals, patched := reg.Counter("watch.standing.evals").Value(), reg.Counter("watch.standing.patched").Value()
	if evals == 0 || patched != evals {
		t.Fatalf("watch.standing.patched = %d, watch.standing.evals = %d; want equal and nonzero", patched, evals)
	}
}

// FuzzStandingQuery: the input chooses a patchable statement and a
// mutation stream over the small service fixture — inserts, updates and
// deletes of nodes and edges in multi-op batches, some rejected — and
// after each batch the subscriber's accumulated deltas must equal a
// fresh full evaluation, every re-evaluation answered by a patch.
func FuzzStandingQuery(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(17), []byte("\x09\x00\x02\x05\x01\x06\x03\x08\x00\x07\x0b\x0a"))
	f.Add(uint8(30), []byte("standing queries patch their answer"))
	f.Add(uint8(53), []byte{2, 8, 1, 0, 9, 3, 3, 6, 2, 1, 7, 7, 0, 10, 4, 4})
	f.Fuzz(func(t *testing.T, stmt uint8, stream []byte) {
		stream = stream[:min(len(stream), 512)]
		pick := func(n int) int {
			if len(stream) == 0 {
				return 0
			}
			b := stream[0]
			stream = stream[1:]
			return int(b) % n
		}
		r := newPatchRig(t, smallService())
		reg := obs.NewRegistry()
		r.hub(reg, patchStatement(int(stmt)))
		r.check()
		for len(stream) > 0 {
			r.step(r.batch(pick))
		}
		if evals, patched := reg.Counter("watch.standing.evals").Value(), reg.Counter("watch.standing.patched").Value(); patched != evals {
			t.Fatalf("%d of %d re-evaluations patched; want all", patched, evals)
		}
	})
}
