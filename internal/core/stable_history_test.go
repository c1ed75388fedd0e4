package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// historyQueries are the RPEs the stable-history test asks: placement
// chains, with and without a status filter, the physical fabric, and
// bare atoms.
var historyQueries = []string{
	"VM()->OnServer()->Host()",
	"VM(status='Green')->OnServer()->Host()",
	"Host()->[PhysicalLink()]{1,3}->Switch()",
	"VM(status='Red')",
	"Host(status='Active')",
}

// question is one recorded Q AT t or Q AT t1:t2 and its answer. An
// answer renders every pathway with its validity clipped to frontier,
// the instant fenced when the question was recorded: a range still open
// then may close later, but nothing at or before frontier may change.
type question struct {
	src      string
	point    bool
	window   temporal.Interval // [t, t+1) for a point
	frontier int64
	want     string
}

func (q *question) String() string {
	if q.point {
		return fmt.Sprintf("%s AT %d", q.src, q.window.Start)
	}
	return fmt.Sprintf("%s AT %d:%d", q.src, q.window.Start, q.window.End)
}

func (q *question) view(st *graph.Store) graph.View {
	if q.point {
		return graph.PointViewAt(st, q.window.Start)
	}
	return graph.WindowView(st, q.window)
}

// historyRun is one random mutation stream over a WAL-backed database,
// with the questions recorded along it.
type historyRun struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string
	clock  *temporal.Clock
	db     *DB
	id     int64
	hosts  []graph.UID
	vms    []graph.UID
	asked  []*question
	checks map[string]int // how often each kind of step ran
}

// TestStableHistory is the single-node stable-history property: once
// committed, the past never changes. Over random schema-valid mutation
// streams it records Q AT t answers, pathways and validity, at instants
// the store has fenced. After every batch the undo journal rolls back,
// every WriteHistory → LoadHistory and every WAL close → recover (some
// from a checkpoint) it re-asks every recorded question: each answer must
// equal the recorded one exactly, and plan.ReferenceEval at t. Each
// AT t1:t2 validity interval is checked to be maximal when recorded.
// Periods advance by random nanoseconds, so a restore that rounds a
// bound shows in an answer.
func TestStableHistory(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := &historyRun{t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(),
				clock: temporal.NewManualClock(t0), checks: map[string]int{}}
			r.open()
			defer func() { r.db.Close() }()
			r.build()
			for step := 0; step < 60; step++ {
				r.clock.Advance(time.Duration(1 + r.rng.Int63n(int64(time.Hour))))
				switch p := r.rng.Intn(10); {
				case p < 6:
					r.mutate()
				case p < 8:
					r.rollback()
				case p < 9:
					r.reload()
				default:
					r.recover(r.rng.Intn(2) == 0)
				}
				r.record()
			}
			r.rollback()
			r.reload()
			r.recover(true)
			for _, kind := range []string{"rollback", "reload", "recover", "checkpoint", "range"} {
				if r.checks[kind] == 0 {
					t.Errorf("the stream never exercised %s", kind)
				}
			}
		})
	}
}

func (r *historyRun) open() {
	db, err := Open(netmodel.MustSchema(), WithClock(r.clock), WithWALOptions(r.dir, wal.Options{NoSync: true}))
	if err != nil {
		r.t.Fatal(err)
	}
	r.db = db
}

func (r *historyRun) node(class string, fields graph.Fields) graph.UID {
	r.id++
	fields["id"], fields["name"] = r.id, fmt.Sprintf("%s-%d", class, r.id)
	uid, err := r.db.InsertNode(class, fields)
	if err != nil {
		r.t.Fatal(err)
	}
	return uid
}

func (r *historyRun) edge(class string, src, dst graph.UID) {
	r.id++
	if _, err := r.db.InsertEdge(class, src, dst, graph.Fields{"id": r.id}); err != nil {
		r.t.Fatal(err)
	}
}

// build loads the base topology: hosts on a chain of switches, and VMs
// placed on hosts.
func (r *historyRun) build() {
	sw := []graph.UID{r.node("TORSwitch", graph.Fields{"status": "Active"}), r.node("SpineSwitch", graph.Fields{"status": "Active"})}
	r.edge(netmodel.PhysicalLink, sw[0], sw[1])
	for i := 0; i < 3; i++ {
		h := r.node("ComputeHost", graph.Fields{"status": "Active"})
		r.hosts = append(r.hosts, h)
		r.edge(netmodel.PhysicalLink, h, sw[r.rng.Intn(2)])
	}
	for i := 0; i < 4; i++ {
		r.addVM()
	}
	r.record()
}

func (r *historyRun) addVM() {
	vm := r.node("VMWare", graph.Fields{"status": "Green"})
	r.vms = append(r.vms, vm)
	if h, ok := r.live(r.hosts); ok {
		r.edge(netmodel.OnServer, vm, h)
	}
}

// live picks a live element of uids.
func (r *historyRun) live(uids []graph.UID) (graph.UID, bool) {
	var out []graph.UID
	for _, u := range uids {
		if r.db.Store().Elem(u).Current() != nil {
			out = append(out, u)
		}
	}
	if len(out) == 0 {
		return 0, false
	}
	return out[r.rng.Intn(len(out))], true
}

// recolor returns uid's current fields with a new status.
func (r *historyRun) recolor(uid graph.UID) graph.Fields {
	f := r.db.Store().Object(uid).Current().Fields.Clone()
	f["status"] = []string{"Green", "Red", "Yellow", "Active"}[r.rng.Intn(4)]
	return f
}

// mutate applies one random schema-valid write.
func (r *historyRun) mutate() {
	vm, okVM := r.live(r.vms)
	switch p := r.rng.Intn(10); {
	case p < 2 || !okVM:
		r.addVM()
	case p < 6:
		if err := r.db.Update(vm, r.recolor(vm)); err != nil {
			r.t.Fatal(err)
		}
	case p < 7:
		if h, ok := r.live(r.hosts); ok {
			if err := r.db.Update(h, r.recolor(h)); err != nil {
				r.t.Fatal(err)
			}
		}
	case p < 9:
		// Re-home: the VM's placements close, a new one opens.
		for _, e := range r.db.Store().OutEdges(vm) {
			if r.db.Store().Elem(e).Current() != nil {
				if err := r.db.Delete(e); err != nil {
					r.t.Fatal(err)
				}
			}
		}
		if h, ok := r.live(r.hosts); ok {
			r.edge(netmodel.OnServer, vm, h)
		}
	default:
		if err := r.db.Delete(vm); err != nil {
			r.t.Fatal(err)
		}
	}
}

// rollback runs a batch whose last op is rejected after earlier ops
// closed versions, so the undo journal restores them; nothing of it may
// show.
func (r *historyRun) rollback() {
	r.checks["rollback"]++
	st := r.db.Store()
	var ms []*graph.Mutation
	if vm, ok := r.live(r.vms); ok {
		ms = append(ms, &graph.Mutation{Op: graph.OpUpdate, UID: vm, Fields: r.recolor(vm)})
	}
	if h, ok := r.live(r.hosts); ok {
		ms = append(ms, &graph.Mutation{Op: graph.OpDelete, UID: h})
	}
	ms = append(ms, &graph.Mutation{Op: graph.OpUpdate, UID: 1 << 40, Fields: graph.Fields{"id": 1}})
	live, versions := st.Counts()
	if err := st.Mutate(context.Background(), ms...); err == nil {
		r.t.Fatal("a batch ending in an update of an unknown uid was applied")
	}
	if l, v := st.Counts(); l != live || v != versions {
		r.t.Fatalf("rolled-back batch left counts (%d, %d), want (%d, %d)", l, v, live, versions)
	}
	if vs := st.CheckInvariants(); len(vs) > 0 {
		r.t.Fatalf("rolled-back batch left %d invariant violations, first: %s", len(vs), vs[0])
	}
	r.reask("rollback", st, r.db.Engine())
}

// reload restores the store's history into a fresh store and asks it.
func (r *historyRun) reload() {
	r.checks["reload"]++
	var buf bytes.Buffer
	if err := r.db.Store().WriteHistory(&buf); err != nil {
		r.t.Fatal(err)
	}
	st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
	if err := st.LoadHistory(&buf); err != nil {
		r.t.Fatal(err)
	}
	r.reask("reload", st, plan.NewEngine(gremlin.New(st)))
}

// recover closes the database, after a checkpoint when checkpoint is
// set, and reopens it from its directory.
func (r *historyRun) recover(checkpoint bool) {
	r.checks["recover"]++
	if checkpoint {
		r.checks["checkpoint"]++
		if err := r.db.Checkpoint(); err != nil {
			r.t.Fatal(err)
		}
	}
	if err := r.db.Close(); err != nil {
		r.t.Fatal(err)
	}
	r.clock = temporal.NewManualClock(temporal.Time(r.clock.Now()))
	r.open()
	r.reask("recover", r.db.Store(), r.db.Engine())
}

// record asks a point and a range question at instants the store has
// fenced, half the points on or beside a version boundary.
func (r *historyRun) record() {
	st := r.db.Store()
	frontier := temporal.Nanos(st.CommittedClock())
	base := temporal.Nanos(t0)
	instant := func() int64 { return base + r.rng.Int63n(frontier-base+1) }
	at := instant()
	if r.rng.Intn(2) == 0 {
		if e := st.Elem(graph.UID(1 + r.rng.Intn(int(r.id)))); e != nil {
			v := e.Period(r.rng.Intn(len(e.Versions)))
			if at = v.Start; !v.IsCurrent() && r.rng.Intn(2) == 0 {
				at = v.End
			}
			at = min(at+int64(r.rng.Intn(3))-1, frontier)
		}
	}
	t1, t2 := instant(), instant()
	if t1 > t2 {
		t1, t2 = t2, t1
	}
	for _, q := range []*question{
		{src: historyQueries[r.rng.Intn(len(historyQueries))], point: true, window: temporal.Between(at, at+1)},
		{src: historyQueries[r.rng.Intn(len(historyQueries))], window: temporal.Between(t1, t2+1)},
	} {
		q.frontier = frontier
		var set *plan.PathwaySet
		q.want, set = r.answer(st, r.db.Engine(), q)
		if !q.point {
			r.checks["range"]++
			r.checkMaximal(st, q, set)
		}
		r.asked = append(r.asked, q)
	}
}

// reask asks every recorded question again after the step named by when.
func (r *historyRun) reask(when string, st *graph.Store, eng *plan.Engine) {
	for _, q := range r.asked {
		if got, _ := r.answer(st, eng, q); got != q.want {
			r.t.Fatalf("after %s, %s answers\n%s\nwant\n%s", when, q, got, q.want)
		}
	}
}

// answer evaluates q, checks the engine against plan.ReferenceEval, and
// renders the answer clipped to q's frontier.
func (r *historyRun) answer(st *graph.Store, eng *plan.Engine, q *question) (string, *plan.PathwaySet) {
	c, err := rpe.CheckString(q.src, st.Schema())
	if err != nil {
		r.t.Fatal(err)
	}
	p, err := plan.Build(c, st.Stats())
	if err != nil {
		r.t.Fatal(err)
	}
	view := q.view(st)
	got, _, err := eng.EvalMetered(view, p)
	if err != nil {
		r.t.Fatal(err)
	}
	if g, ref := renderPaths(got, temporal.Forever), renderPaths(plan.ReferenceEval(view, c), temporal.Forever); g != ref {
		r.t.Fatalf("%s: engine answers\n%s\nreference answers\n%s", q, g, ref)
	}
	return renderPaths(got, q.frontier), got
}

// renderPaths renders a pathway set one sorted line per pathway, with its
// validity in nanoseconds clipped to the instants at or before frontier.
func renderPaths(s *plan.PathwaySet, frontier int64) string {
	lines := make([]string, 0, s.Len())
	for _, p := range s.Paths() {
		line := fmt.Sprint(p.Elems)
		for _, iv := range p.Validity.ClipTo(temporal.Between(math.MinInt64, temporal.Add(frontier, 1))) {
			line += fmt.Sprintf(" [%d, %d)", iv.Start, iv.End)
		}
		lines = append(lines, line)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// checkMaximal checks that each validity interval of a range answer's
// first pathways is maximal: the pathway holds at its first and last
// instant and at neither instant just outside it.
func (r *historyRun) checkMaximal(st *graph.Store, q *question, set *plan.PathwaySet) {
	c, _ := rpe.CheckString(q.src, st.Schema())
	p, _ := plan.Build(c, st.Stats())
	holds := func(elems []graph.UID, at int64) bool {
		got, _, err := r.db.Engine().EvalMetered(graph.PointViewAt(st, at), p)
		if err != nil {
			r.t.Fatal(err)
		}
		return slices.ContainsFunc(got.Paths(), func(x plan.Pathway) bool { return slices.Equal(x.Elems, elems) })
	}
	for _, path := range set.Paths()[:min(set.Len(), 3)] {
		for _, iv := range path.Validity {
			probes := []struct {
				at   int64
				want bool
			}{{iv.Start, true}, {iv.End - 1, true}, {iv.Start - 1, false}, {iv.End, false}}
			for _, pr := range probes {
				if pr.at == temporal.Forever {
					continue
				}
				if holds(path.Elems, pr.at) != pr.want {
					r.t.Fatalf("%s: pathway %v validity %v is not maximal: holds at %d is %v",
						q, path.Elems, path.Validity, pr.at, !pr.want)
				}
			}
		}
	}
}
