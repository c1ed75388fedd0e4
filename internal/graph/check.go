package graph

import (
	"fmt"

	"repro/internal/temporal"
)

// Violation is one breached store invariant found by CheckInvariants.
type Violation struct {
	// UID is the object the violation is anchored to (0 for store-wide
	// accounting violations).
	UID UID
	// Kind is a stable machine-readable category: "version-order",
	// "open-version", "endpoint", "edge-lifetime", "adjacency",
	// "unique-index", "uid-range", or "accounting".
	Kind string
	// Msg describes the violation.
	Msg string
}

func (v Violation) String() string {
	if v.UID == 0 {
		return fmt.Sprintf("[%s] %s", v.Kind, v.Msg)
	}
	return fmt.Sprintf("[%s] uid %d: %s", v.Kind, v.UID, v.Msg)
}

// CheckInvariants verifies the store's structural invariants and returns
// every violation found (nil for a healthy store). It is the shared
// checker behind `nepal -fsck` and the WAL crash-recovery tests:
//
//   - version histories are non-empty, with ascending starts, no empty
//     periods, an End no earlier than the last start, and the open
//     version (if any) final;
//   - every edge's endpoints exist, are nodes, and their lifetimes cover
//     the edge's lifetime;
//   - the adjacency indexes agree exactly with edge endpoints;
//   - the unique indexes hold exactly the live objects' unique values;
//   - every allocated UID lies below nextUID;
//   - live/version/per-class counters match the object table.
//
// The store is read-locked for the duration; the check is O(objects +
// versions + index entries).
func (st *Store) CheckInvariants() []Violation {
	st.mu.RLock()
	defer st.mu.RUnlock()

	var out []Violation
	add := func(uid UID, kind, format string, args ...any) {
		out = append(out, Violation{UID: uid, Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}

	live, versions := 0, 0
	classCount := make(map[string]int)
	for uid := UID(0); uid < st.objects.end(); uid++ {
		obj := st.objects.at(uid)
		if obj == nil {
			continue
		}
		if uid != obj.UID {
			add(uid, "uid-range", "object table key %d holds object with uid %d", uid, obj.UID)
		}
		if uid >= st.nextUID {
			add(uid, "uid-range", "uid at or above next_uid %d", st.nextUID)
		}
		versions += len(obj.Versions)
		if obj.Current() != nil {
			live++
			classCount[obj.Class.Name]++
		}
		out = append(out, checkVersions(obj)...)
		if obj.IsEdge() {
			out = append(out, st.checkEdge(obj)...)
		}
	}

	out = append(out, st.checkAdjacency()...)
	out = append(out, st.checkUnique()...)

	if live != st.liveCount {
		add(0, "accounting", "liveCount %d, but %d objects have a current version", st.liveCount, live)
	}
	if versions != st.versionCount {
		add(0, "accounting", "versionCount %d, but objects hold %d versions", st.versionCount, versions)
	}
	for class, n := range classCount {
		if st.classCount[class] != n {
			add(0, "accounting", "classCount[%s] %d, but %d live objects", class, st.classCount[class], n)
		}
	}
	for class, n := range st.classCount {
		if n != 0 && classCount[class] == 0 {
			add(0, "accounting", "classCount[%s] %d, but no live objects", class, n)
		}
	}
	return out
}

// checkVersions validates one element's version history: starts ascend,
// no version is empty, the header's End is not before the last start,
// and only the last version is open (a non-final version is open when
// the next one starts at Forever).
func checkVersions(obj *Elem) []Violation {
	var out []Violation
	n := len(obj.Versions)
	if n == 0 {
		return []Violation{{UID: obj.UID, Kind: "version-order", Msg: "object has no versions"}}
	}
	add := func(kind, format string, args ...any) {
		out = append(out, Violation{UID: obj.UID, Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
	for i := range obj.Versions {
		p := obj.Period(i)
		switch {
		case i+1 < n && p.End < p.Start:
			add("version-order", "version %d starts before version %d", i+1, i)
		case i+1 == n && p.End < p.Start:
			add("version-order", "end %d precedes the last version's start %d", obj.End, p.Start)
		case p.IsEmpty():
			add("version-order", "version %d has empty period %v", i, p)
		}
		if p.IsCurrent() && i+1 < n {
			add("open-version", "non-final version %d is open", i)
		}
	}
	return out
}

// checkEdge validates an edge's endpoints and temporal containment.
func (st *Store) checkEdge(obj *Elem) []Violation {
	var out []Violation
	for _, end := range []UID{obj.Src, obj.Dst} {
		other := st.objects.at(end)
		if other == nil {
			out = append(out, Violation{UID: obj.UID, Kind: "endpoint",
				Msg: fmt.Sprintf("endpoint %d does not exist", end)})
			continue
		}
		if other.IsEdge() {
			out = append(out, Violation{UID: obj.UID, Kind: "endpoint",
				Msg: fmt.Sprintf("endpoint %d is an edge", end)})
			continue
		}
		if !covers(other.Lifetime(), obj.Lifetime()) {
			out = append(out, Violation{UID: obj.UID, Kind: "edge-lifetime",
				Msg: fmt.Sprintf("edge lifetime %v exceeds endpoint %d lifetime %v",
					obj.Lifetime(), end, other.Lifetime())})
		}
	}
	return out
}

// covers reports whether outer temporally contains inner.
func covers(outer, inner temporal.Set) bool {
	inner = inner.Normalize()
	clipped := inner.Intersect(outer)
	if len(clipped) != len(inner) {
		return false
	}
	for i := range inner {
		if !clipped[i].Equal(inner[i]) {
			return false
		}
	}
	return true
}

// checkAdjacency verifies that out/in index entries and edge endpoints
// agree in both directions.
func (st *Store) checkAdjacency() []Violation {
	var out []Violation
	// seen[edge] is 1 when out lists it, 2 when in does, 3 for both.
	seen := make([]uint8, st.objects.end())
	for node := UID(0); node < st.out.end(); node++ {
		for _, eid := range st.out.at(node) {
			e := st.objects.at(eid)
			if e == nil || !e.IsEdge() || e.Src != node {
				out = append(out, Violation{UID: eid, Kind: "adjacency",
					Msg: fmt.Sprintf("out[%d] lists uid %d which is not an edge from it", node, eid)})
				continue
			}
			seen[eid] |= 1
		}
	}
	for node := UID(0); node < st.in.end(); node++ {
		for _, eid := range st.in.at(node) {
			e := st.objects.at(eid)
			if e == nil || !e.IsEdge() || e.Dst != node {
				out = append(out, Violation{UID: eid, Kind: "adjacency",
					Msg: fmt.Sprintf("in[%d] lists uid %d which is not an edge into it", node, eid)})
				continue
			}
			seen[eid] |= 2
		}
	}
	for uid := UID(0); uid < st.objects.end(); uid++ {
		obj := st.objects.at(uid)
		if obj == nil || !obj.IsEdge() {
			continue
		}
		if seen[uid]&1 == 0 {
			out = append(out, Violation{UID: uid, Kind: "adjacency",
				Msg: fmt.Sprintf("edge missing from out[%d]", obj.Src)})
		}
		if seen[uid]&2 == 0 {
			out = append(out, Violation{UID: uid, Kind: "adjacency",
				Msg: fmt.Sprintf("edge missing from in[%d]", obj.Dst)})
		}
	}
	return out
}

// checkUnique verifies the unique indexes against live objects: every
// index entry points at a live holder of the value, and every live
// object's unique values are indexed to it.
func (st *Store) checkUnique() []Violation {
	var out []Violation
	for key, x := range st.unique {
		x.each(func(k indexKey, holder UID) {
			obj := st.objects.at(holder)
			if obj == nil || obj.Current() == nil {
				out = append(out, Violation{UID: holder, Kind: "unique-index",
					Msg: fmt.Sprintf("%s.%s entry %q points at a dead object", key.class, key.field, k)})
				return
			}
			found := false
			eachUnique(obj.Class, obj.Current().Rec, func(kk uniqueKey, v indexKey) {
				found = found || kk == key && v == k
			})
			if !found {
				out = append(out, Violation{UID: holder, Kind: "unique-index",
					Msg: fmt.Sprintf("%s.%s entry %q not held by its owner", key.class, key.field, k)})
			}
		})
	}
	for uid := UID(0); uid < st.objects.end(); uid++ {
		obj := st.objects.at(uid)
		if obj == nil {
			continue
		}
		cur := obj.Current()
		if cur == nil {
			continue
		}
		eachUnique(obj.Class, cur.Rec, func(key uniqueKey, k indexKey) {
			if held, _ := st.unique[key].get(k); held != uid {
				out = append(out, Violation{UID: uid, Kind: "unique-index",
					Msg: fmt.Sprintf("live value %q for %s.%s not indexed to owner", k, key.class, key.field)})
			}
		})
	}
	return out
}
