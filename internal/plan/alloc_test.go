package plan_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/temporal"
)

// TestExtendAllocations pins the search core's memory model: what one
// untraced evaluation allocates is bounded by the anchors it starts from,
// not by the pathways it emits, the edges it scans or how deep it
// searches. It runs a Host-Host query at 4 and at 6 hops on the demo
// topology, and again with the demo's fabric widened to seven spines,
// where the 6-hop search explores over twice the partial pathways of the
// 4-hop one for the same 14 results. The third fixture gives the added
// spines' links a history: three updates each, which on every other
// spine turn a link down and up again, so half the pathways are stable
// for the query and half need the validity computation's boundary
// slicing — and both regimes must stay within the same bound.
//
// The search scratch is pooled and the result is built in it, so a warm
// evaluation pays only for what it returns: the set, sealed at exact size
// in three arrays whatever the number of pathways. The relational backend
// builds a result slice per adjacency probe — physical access, outside
// the shared core — so it is allowed one allocation per expanded partial
// on top; gremlin hands out the store's own adjacency lists and gets the
// bare bound. The scratch waits in a free list, not a sync.Pool, so
// nothing drops it between evaluations, under -race included.
func TestExtendAllocations(t *testing.T) {
	for _, fx := range []struct {
		spines int
		churn  bool
	}{{0, false}, {6, false}, {6, true}} {
		st, d, clock := demoStore(t)
		var links [][]graph.UID // per added spine, its four links
		for i := 0; i < fx.spines; i++ {
			sp, err := st.InsertNode("SpineSwitch", graph.Fields{"id": int64(5000 + i), "name": fmt.Sprintf("spine-x%d", i), "status": "Active"})
			if err != nil {
				t.Fatal(err)
			}
			links = append(links, nil)
			for j, link := range [][2]graph.UID{{d.TOR1, sp}, {sp, d.TOR1}, {d.TOR2, sp}, {sp, d.TOR2}} {
				uid, err := st.InsertEdge(netmodel.PhysicalLink, link[0], link[1], graph.Fields{"id": int64(6000 + 4*i + j), "switchInterface": "up"})
				if err != nil {
					t.Fatal(err)
				}
				links[i] = append(links[i], uid)
			}
		}
		src := "Host()->[PhysicalLink()]{1,%d}->Host()"
		if fx.churn {
			src = "Host()->[PhysicalLink(switchInterface!='down')]{1,%d}->Host()"
			for round, state := range []string{"down", "up", "up"} {
				clock.SetNow(t0.Add(time.Duration(round+1) * time.Hour))
				for i, spine := range links {
					for _, uid := range spine {
						f := st.Object(uid).Current().Fields.Clone()
						f["serverInterface"] = fmt.Sprintf("eth%d", round)
						if i%2 == 0 {
							f["switchInterface"] = state
						}
						if err := st.Update(uid, f); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		view := graph.CurrentView(st)
		for name, eng := range engines(st) {
			perPath := map[int]float64{}
			for _, hops := range []int{4, 6} {
				_, p := mustPlan(t, st, fmt.Sprintf(src, hops))
				set, m, _, err := eng.EvalWith(view, p, plan.EvalOpts{})
				if err != nil || set.Len() == 0 {
					t.Fatalf("%s: %d pathways, err %v", name, set.Len(), err)
				}
				allocs := testing.AllocsPerRun(20, func() { eng.EvalWith(view, p, plan.EvalOpts{}) })
				bound := 2*m.AnchorRecords + 16
				if name == "relational" {
					bound += m.PartialsExplored
				}
				if allocs > float64(bound) {
					t.Errorf("%s, %d extra spines (churn %v), %d hops: %.0f allocations, want at most %d (%v)",
						name, fx.spines, fx.churn, hops, allocs, bound, m)
				}
				perPath[hops] = allocs / float64(set.Len())
			}
			if name == "gremlin" && perPath[6] > 1.5*perPath[4] {
				t.Errorf("%s, %d extra spines (churn %v): %.1f allocations per pathway at 6 hops, %.1f at 4: they grow with the search",
					name, fx.spines, fx.churn, perPath[6], perPath[4])
			}
		}
	}
}

// TestElementIndexSparseRange pins what the element table's UID index
// costs: one cold evaluation touching 100 elements allocates the same
// whether their UIDs span a hundred or a million, up to the few index
// pages and directories the spread adds. The same 34 hosts, 33 VMs and
// 33 OnServer edges are replayed at UIDs 1-100, and again with the VMs
// and edges moved past UID 1,000,000. A flat per-UID array would cost
// 4 MB at the wide range, a one-level page directory 31 KB.
func TestElementIndexSparseRange(t *testing.T) {
	build := func(far graph.UID) *graph.Store {
		st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0), nil)
		at := temporal.Nanos(t0)
		apply := func(m *graph.Mutation) {
			at += int64(time.Millisecond)
			m.At = at
			if _, err := st.ApplyMutation(m); err != nil {
				t.Fatal(err)
			}
		}
		for i := graph.UID(1); i <= 34; i++ {
			apply(&graph.Mutation{Op: graph.OpInsertNode, UID: i, Class: "ComputeHost", Fields: graph.Fields{"id": int64(i), "status": "Active"}})
		}
		for i := graph.UID(0); i < 33; i++ {
			vm, edge := far+35+2*i, far+36+2*i
			apply(&graph.Mutation{Op: graph.OpInsertNode, UID: vm, Class: "VMWare", Fields: graph.Fields{"id": int64(vm), "status": "Green"}})
			apply(&graph.Mutation{Op: graph.OpInsertEdge, UID: edge, Class: netmodel.OnServer, Src: vm, Dst: 1 + i, Fields: graph.Fields{"id": int64(edge)}})
		}
		return st
	}
	// coldBytes is the least any of five evaluations allocates with no
	// idle evaluation state to reuse.
	coldBytes := func(st *graph.Store) uint64 {
		eng := plan.NewEngine(gremlin.New(st))
		_, p := mustPlan(t, st, "VM()->OnServer()->Host()")
		view := graph.CurrentView(st)
		least := ^uint64(0)
		for range 5 {
			plan.DropIdleStates()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			set, m, _, err := eng.EvalWith(view, p, plan.EvalOpts{})
			runtime.ReadMemStats(&m1)
			if err != nil || set.Len() != 33 || m.EdgesScanned != 33 {
				t.Fatalf("%d pathways over %d edges, err %v; want 33 over 33", set.Len(), m.EdgesScanned, err)
			}
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least
	}
	narrow, wide := coldBytes(build(0)), coldBytes(build(1_000_000))
	// The wide store's elements sit on two more index pages (1 KB each)
	// under one more directory (2 KB), and its top directory holds 16
	// pointers.
	if slack := uint64(8 << 10); wide > narrow+slack {
		t.Errorf("one cold evaluation allocates %d bytes over a 1M-UID range, %d over 100 UIDs: more than %d apart", wide, narrow, slack)
	}
}
