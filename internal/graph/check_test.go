package graph

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/temporal"
)

// buildCheckedStore assembles a small healthy topology: two VMs on a
// host, one updated, one connection, one deleted VM.
func buildCheckedStore(t *testing.T) *Store {
	t.Helper()
	st, _ := newTestStore(t)
	vm1 := mustInsertNode(t, st, "VM", Fields{"id": 1, "status": "Green"})
	vm2 := mustInsertNode(t, st, "VM", Fields{"id": 2, "status": "Green"})
	host := mustInsertNode(t, st, "Host", Fields{"id": 10})
	mustInsertEdge(t, st, "HostedOn", vm1, host, Fields{"id": 100})
	mustInsertEdge(t, st, "HostedOn", vm2, host, Fields{"id": 101})
	mustInsertEdge(t, st, "ConnectsTo", vm1, vm2, Fields{"id": 102})
	if err := st.Update(vm1, Fields{"id": 1, "status": "Red"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(vm2); err != nil {
		t.Fatal(err)
	}
	return st
}

func mustInsertNode(t *testing.T, st *Store, class string, f Fields) UID {
	t.Helper()
	uid, err := st.InsertNode(class, f)
	if err != nil {
		t.Fatal(err)
	}
	return uid
}

func mustInsertEdge(t *testing.T, st *Store, class string, src, dst UID, f Fields) UID {
	t.Helper()
	uid, err := st.InsertEdge(class, src, dst, f)
	if err != nil {
		t.Fatal(err)
	}
	return uid
}

func TestCheckInvariantsHealthy(t *testing.T) {
	if vs := buildCheckedStore(t).CheckInvariants(); len(vs) != 0 {
		t.Fatalf("healthy store reported violations: %v", vs)
	}
	empty, _ := newTestStore(t)
	if vs := empty.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("empty store reported violations: %v", vs)
	}
}

// TestCheckInvariantsDetectsCorruption corrupts the store's internals one
// invariant at a time and asserts the checker names each breach.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		kind    string
		corrupt func(t *testing.T, st *Store)
	}{
		{"uid above next_uid", "uid-range", func(t *testing.T, st *Store) {
			st.nextUID = 2
		}},
		{"object table key mismatch", "uid-range", func(t *testing.T, st *Store) {
			*st.objects.slot(99) = st.objects.at(1)
			st.nextUID = 200
			// Slot 99 now holds the object whose UID field says 1.
		}},
		{"object on a page past next_uid", "uid-range", func(t *testing.T, st *Store) {
			// A second page, beyond next_uid, holding a copy of vm1.
			obj := *st.objects.at(1)
			obj.UID = 3 * pageSize
			*st.objects.slot(obj.UID) = &obj
		}},
		{"empty version period", "version-order", func(t *testing.T, st *Store) {
			obj := st.objects.at(2) // vm2: deleted, one version
			obj.End = obj.Versions[0].Start
		}},
		{"overlapping versions", "version-order", func(t *testing.T, st *Store) {
			obj := st.objects.at(1) // vm1: updated, two versions
			if len(obj.Versions) < 2 {
				t.Fatal("fixture changed: vm1 needs two versions")
			}
			obj.Versions[1].Start = obj.Versions[0].Start - 1 // starts descend
		}},
		{"end before last start", "version-order", func(t *testing.T, st *Store) {
			obj := st.objects.at(2)
			obj.End = obj.Versions[0].Start - 1
		}},
		{"non-final open version", "open-version", func(t *testing.T, st *Store) {
			obj := st.objects.at(1)
			obj.Versions[1].Start = temporal.Forever // version 0 never closes
		}},
		{"edge endpoint missing", "endpoint", func(t *testing.T, st *Store) {
			*st.objects.slot(3) = nil // the host, endpoint of two HostedOn edges
		}},
		{"edge outlives endpoint", "edge-lifetime", func(t *testing.T, st *Store) {
			// Shrink the host's lifetime to end before its edges do.
			obj := st.objects.at(3)
			obj.End = obj.Versions[0].Start + 1
		}},
		{"adjacency entry dropped", "adjacency", func(t *testing.T, st *Store) {
			*st.out.slot(1) = nil // vm1 no longer lists its outgoing edges
		}},
		{"adjacency entry on an edge's slot", "adjacency", func(t *testing.T, st *Store) {
			*st.out.slot(4) = []UID{5} // edge 4 listed as the source of edge 5
		}},
		{"adjacency entry forged", "adjacency", func(t *testing.T, st *Store) {
			in := st.in.slot(1)
			*in = append(*in, 4) // edge 4's Dst is the host, not vm1
		}},
		{"unique entry points at dead object", "unique-index", func(t *testing.T, st *Store) {
			for _, x := range st.unique {
				for _, holder := range x.ints {
					obj := st.objects.at(holder)
					obj.End = obj.Current().Start + 1
					return
				}
			}
			t.Fatal("no unique entries to corrupt")
		}},
		{"live value unindexed", "unique-index", func(t *testing.T, st *Store) {
			for _, x := range st.unique {
				for n := range x.ints {
					delete(x.ints, n)
					return
				}
			}
			t.Fatal("no unique entries to corrupt")
		}},
		{"string entry not held by its owner", "unique-index", func(t *testing.T, st *Store) {
			uid, err := st.InsertNode("VM", Fields{"id": 40, "status": "a"})
			if err != nil {
				t.Fatal(err)
			}
			st.index(uniqueKey{class: schema.NodeRoot, field: "id"}).set(keyOf("40"), uid) // "40" is not 40
		}},
		{"accounting drift", "accounting", func(t *testing.T, st *Store) {
			st.liveCount += 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := buildCheckedStore(t)
			tc.corrupt(t, st)
			vs := st.CheckInvariants()
			if len(vs) == 0 {
				t.Fatalf("corruption went undetected")
			}
			found := false
			for _, v := range vs {
				if v.Kind == tc.kind {
					found = true
				}
				if v.String() == "" {
					t.Error("violation renders empty")
				}
			}
			if !found {
				t.Errorf("no %q violation among: %v", tc.kind, vs)
			}
		})
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{UID: 7, Kind: "endpoint", Msg: "endpoint 9 does not exist"}
	if s := v.String(); !strings.Contains(s, "uid 7") || !strings.Contains(s, "endpoint") {
		t.Errorf("String() = %q", s)
	}
	storeWide := Violation{Kind: "accounting", Msg: "drift"}
	if s := storeWide.String(); strings.Contains(s, "uid") {
		t.Errorf("store-wide violation mentions a uid: %q", s)
	}
}
