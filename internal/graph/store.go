// Package graph implements Nepal's native temporal graph store: versioned
// nodes and edges stamped with transaction-time sys_period intervals,
// adjacency and class indexes, snapshot-at-time views, an update-by-snapshot
// diff service, and the storage accounting behind the paper's history
// overhead experiment.
//
// The store is the "graph data management layer" of §3.1: it translates
// inserts, updates, and deletes into versioned records, exactly as the
// temporal_tables Postgres extension keeps a current table plus a history
// table per class. Both query backends (internal/gremlin and
// internal/relational) execute over a *Store.
package graph

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/temporal"
)

// UID identifies a node or edge for its entire lifetime, across versions.
// Node and edge UIDs are drawn from the same sequence, so a pathway's
// uid_list is unambiguous.
type UID int64

// Fields is one version's attribute map. Values follow the schema type
// system (string, int64/int, float64, bool, []any, map[string]any).
type Fields map[string]any

// Clone copies the map one level deep; nested containers are treated as
// immutable once stored.
func (f Fields) Clone() Fields {
	out := make(Fields, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// Version is one temporal version of an object: the field values that held
// during Period.
type Version struct {
	Fields Fields
	Period temporal.Interval
}

// Object is a node or edge with its full version history. Versions are
// ordered by period start and non-overlapping; the last one is open
// (IsCurrent) unless the object has been deleted.
//
// An Object is immutable once the store has published it: a write that
// changes one — an update or a delete closing its open version — installs
// a fresh Object with a copied Versions slice under the write lock. So a
// reader holding an *Object from Object (or an index) reads it without a
// lock and never sees a version closed or appended underneath it.
type Object struct {
	UID   UID
	Class *schema.Class
	// Src and Dst are the endpoint node UIDs; meaningful for edges only.
	// Endpoints are immutable: rewiring an edge is a delete plus an insert.
	Src, Dst UID
	Versions []Version
}

// IsEdge reports whether the object is an edge.
func (o *Object) IsEdge() bool { return o.Class.IsEdge() }

// Current returns the open version, or nil when the object is deleted.
func (o *Object) Current() *Version {
	if len(o.Versions) == 0 {
		return nil
	}
	v := &o.Versions[len(o.Versions)-1]
	if v.Period.IsCurrent() {
		return v
	}
	return nil
}

// VersionAt returns the version visible at time t, or nil.
func (o *Object) VersionAt(t time.Time) *Version {
	// Versions are few per object; linear scan from the end is fastest for
	// the common "current or near-current" case.
	for i := len(o.Versions) - 1; i >= 0; i-- {
		if o.Versions[i].Period.Contains(t) {
			return &o.Versions[i]
		}
		if o.Versions[i].Period.End.Before(t) {
			return nil
		}
	}
	return nil
}

// Lifetime returns the normalized set of periods during which the object
// existed (across all versions, regardless of field changes).
func (o *Object) Lifetime() temporal.Set {
	s := make(temporal.Set, len(o.Versions))
	for i, v := range o.Versions {
		s[i] = v.Period
	}
	return s.Normalize()
}

// Store is the temporal graph store. All methods are safe for concurrent
// use; reads proceed under a shared lock.
type Store struct {
	mu     sync.RWMutex
	schema *schema.Schema
	clock  *temporal.Clock

	// objects holds every object ever stored, at its UID; nextUID is the
	// allocation frontier, one past the largest UID allocated.
	objects table[*Object]
	nextUID UID

	// out and in hold, at a node's UID, the UIDs of its outgoing/incoming
	// edges (all classes, all times; visibility is filtered temporally at
	// read).
	out table[[]UID]
	in  table[[]UID]

	// byClass maps a concrete class name to the UIDs of its objects.
	byClass map[string][]UID

	// unique indexes enforce schema Unique fields: for each declaring class
	// and field, valueKey -> owning UID among currently-live objects.
	unique map[uniqueKey]map[string]UID

	// classCount tracks live objects per concrete class (statistics for the
	// anchor cost model).
	classCount map[string]int
	// versionCount counts all versions ever stored (storage accounting).
	versionCount int
	liveCount    int

	// reg is the registry the store and the components built over it
	// record into; o holds the store's own metrics, resolved from it once.
	reg *obs.Registry
	o   storeObs

	// hook, when non-nil, observes each batch's stamped group before its
	// last op is applied, under the write lock (see SetMutationHook);
	// group is the reused slice it is handed.
	hook  MutationHook
	group []*Mutation
	// undo journals a multi-op batch's changes until it stands.
	undo undoLog
}

type uniqueKey struct {
	class string // class that declares the unique field
	field string
}

// NewStore returns an empty store over a finalized schema. A nil clock
// uses the wall clock; tests pass a manual clock for determinism. The
// store records its metrics into reg (nil records nothing).
func NewStore(s *schema.Schema, clock *temporal.Clock, reg *obs.Registry) *Store {
	if clock == nil {
		clock = &temporal.Clock{}
	}
	st := &Store{
		schema:     s,
		clock:      clock,
		byClass:    make(map[string][]UID),
		unique:     make(map[uniqueKey]map[string]UID),
		classCount: make(map[string]int),
		nextUID:    1,
		reg:        reg,
	}
	st.o = newStoreObs(st, reg)
	return st
}

// Schema returns the store's schema.
func (st *Store) Schema() *schema.Schema { return st.schema }

// Clock returns the store's transaction clock.
func (st *Store) Clock() *temporal.Clock { return st.clock }

// Now reports the store's current transaction time.
func (st *Store) Now() time.Time { return st.clock.Now() }

// CommittedClock returns a replication-safe coverage watermark: every
// mutation stamped at or before the returned time has fully committed
// (its hook — WAL durability — ran and it is visible in memory), and
// every future mutation will be stamped strictly after it. It takes the
// read lock to exclude in-flight writers, then fences the clock; the
// replication source stamps feed batches with it so a follower that has
// replayed the log through the capture point can adopt it as its
// applied-through timestamp without missing a concurrent commit.
func (st *Store) CommittedClock() time.Time {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.clock.Fence()
}

// InsertNode validates and inserts a node record, returning its UID.
func (st *Store) InsertNode(class string, fields Fields) (UID, error) {
	m := &Mutation{Op: OpInsertNode, Class: class, Fields: fields}
	if err := st.Mutate(context.Background(), m); err != nil {
		return 0, err
	}
	return m.UID, nil
}

// InsertEdge validates and inserts an edge from src to dst. The edge class
// must permit the connection under the schema's allowed-edge rules, and
// both endpoints must be live.
func (st *Store) InsertEdge(class string, src, dst UID, fields Fields) (UID, error) {
	m := &Mutation{Op: OpInsertEdge, Class: class, Src: src, Dst: dst, Fields: fields}
	if err := st.Mutate(context.Background(), m); err != nil {
		return 0, err
	}
	return m.UID, nil
}

// Update closes the object's current version and opens a new one with the
// supplied full field map (Nepal's sources supply complete records, not
// patches). Updating a deleted object is an error.
func (st *Store) Update(uid UID, fields Fields) error {
	return st.Mutate(context.Background(), &Mutation{Op: OpUpdate, UID: uid, Fields: fields})
}

// Delete closes the object's current version. Deleting a node also deletes
// its live incident edges, mirroring referential integrity in the
// relational mapping. Deleting a deleted object is a no-op.
func (st *Store) Delete(uid UID) error {
	return st.Mutate(context.Background(), &Mutation{Op: OpDelete, UID: uid})
}

// installLocked installs a fully validated object at a fixed timestamp.
func (st *Store) installLocked(c *schema.Class, uid UID, src, dst UID, fields Fields, ts time.Time) {
	st.setObject(uid, &Object{
		UID:      uid,
		Class:    c,
		Src:      src,
		Dst:      dst,
		Versions: []Version{{Fields: fields.Clone(), Period: temporal.Current(ts)}},
	})
	st.appendByClass(c.Name, uid)
	st.addClassCount(c.Name, 1)
	st.versionCount++
	st.liveCount++
	st.recordUnique(c, fields, uid)
	if c.IsEdge() {
		st.appendAdjacency(src, dst, uid)
	}
	if uid >= st.nextUID {
		st.nextUID = uid + 1
	}
}

// updateLocked closes obj's open version and opens a new one at a fixed
// timestamp, publishing the result as a fresh object.
func (st *Store) updateLocked(obj *Object, fields Fields, t time.Time) {
	st.releaseUnique(obj.Class, obj.Current().Fields, obj.UID)
	st.recordUnique(obj.Class, fields, obj.UID)
	next := st.closedCopy(obj, t, 1)
	next.Versions = append(next.Versions, Version{Fields: fields.Clone(), Period: temporal.Current(t)})
	st.versionCount++
}

// closedCopy publishes a copy of obj whose open version ends at t, with
// capacity for extra versions to be appended, and returns it. The
// published original is never written: objects are immutable once readers
// can reach them.
func (st *Store) closedCopy(obj *Object, t time.Time, extra int) *Object {
	next := *obj
	next.Versions = make([]Version, len(obj.Versions), len(obj.Versions)+extra)
	copy(next.Versions, obj.Versions)
	next.Versions[len(next.Versions)-1].Period.End = t
	st.setObject(obj.UID, &next)
	return &next
}

// deleteAtLocked closes the object — and, for a node, its live incident
// edges — at one shared timestamp t, so the whole cascade is a single
// atomic transaction-time event that log replay reproduces exactly.
func (st *Store) deleteAtLocked(obj *Object, t time.Time) {
	if !obj.IsEdge() {
		for _, eid := range st.out.at(obj.UID) {
			st.closeIfLive(eid, t)
		}
		for _, eid := range st.in.at(obj.UID) {
			st.closeIfLive(eid, t)
		}
	}
	st.closeObject(obj, t)
}

func (st *Store) closeIfLive(uid UID, t time.Time) {
	if obj := st.objects.at(uid); obj != nil && obj.Current() != nil {
		st.closeObject(obj, t)
	}
}

func (st *Store) closeObject(obj *Object, t time.Time) {
	st.releaseUnique(obj.Class, obj.Current().Fields, obj.UID)
	st.closedCopy(obj, t, 0)
	st.addClassCount(obj.Class.Name, -1)
	st.liveCount--
}

// claimUnique verifies no other live object holds the unique field values
// in fields; self may already hold them (updates).
func (st *Store) claimUnique(c *schema.Class, fields Fields, self UID) error {
	for cur := c; cur != nil; cur = cur.Parent {
		for _, f := range cur.OwnFields {
			if !f.Unique {
				continue
			}
			v, ok := fields[f.Name]
			if !ok {
				continue
			}
			key := uniqueKey{class: cur.Name, field: f.Name}
			if held, exists := st.unique[key][valueKey(v)]; exists && held != self {
				return fmt.Errorf("graph: duplicate value %v for unique field %s.%s (held by uid %d)",
					v, cur.Name, f.Name, held)
			}
		}
	}
	return nil
}

func (st *Store) recordUnique(c *schema.Class, fields Fields, uid UID) {
	st.eachUnique(c, fields, func(key uniqueKey, vk string) {
		m := st.unique[key]
		if m == nil {
			m = make(map[string]UID)
			st.unique[key] = m
		}
		st.setUnique(m, vk, uid)
	})
}

func (st *Store) releaseUnique(c *schema.Class, fields Fields, uid UID) {
	st.eachUnique(c, fields, func(key uniqueKey, vk string) {
		if m := st.unique[key]; m != nil && m[vk] == uid {
			st.setUnique(m, vk, 0)
		}
	})
}

func (st *Store) eachUnique(c *schema.Class, fields Fields, fn func(uniqueKey, string)) {
	for cur := c; cur != nil; cur = cur.Parent {
		for _, f := range cur.OwnFields {
			if !f.Unique {
				continue
			}
			if v, ok := fields[f.Name]; ok {
				fn(uniqueKey{class: cur.Name, field: f.Name}, valueKey(v))
			}
		}
	}
}

// valueKey canonicalizes a field value for index keys: all integer-valued
// numerics collapse to the same key so that 5, int64(5) and 5.0 collide.
// It runs on every insert, update and restored version, so the common
// kinds are built with strconv rather than fmt.
func valueKey(v any) string {
	var buf [32]byte
	switch n := v.(type) {
	case int:
		return string(strconv.AppendInt(append(buf[:0], 'i'), int64(n), 10))
	case int32:
		return string(strconv.AppendInt(append(buf[:0], 'i'), int64(n), 10))
	case int64:
		return string(strconv.AppendInt(append(buf[:0], 'i'), n, 10))
	case float64:
		if n == float64(int64(n)) {
			return string(strconv.AppendInt(append(buf[:0], 'i'), int64(n), 10))
		}
		return string(strconv.AppendFloat(append(buf[:0], 'f'), n, 'g', -1, 64))
	case string:
		return "s" + n
	case bool:
		return string(strconv.AppendBool(append(buf[:0], 'b'), n))
	}
	return fmt.Sprintf("v%v", v)
}

// Object returns the object with the given UID, or nil.
func (st *Store) Object(uid UID) *Object {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.objects.at(uid)
}

// OutEdges returns the UIDs of all edges ever attached outgoing from the
// node (temporal filtering is the caller's concern). The returned slice
// must not be modified.
func (st *Store) OutEdges(node UID) []UID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.out.at(node)
}

// InEdges returns the UIDs of all edges ever attached incoming to the node.
func (st *Store) InEdges(node UID) []UID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.in.at(node)
}

// ByClass returns the UIDs of all objects whose concrete class is exactly
// name. The returned slice must not be modified.
func (st *Store) ByClass(name string) []UID {
	st.o.classScans.Add(1)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.byClass[name]
}

// BySubtree returns the UIDs of all objects of class c or any subclass.
func (st *Store) BySubtree(c *schema.Class) []UID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []UID
	for _, name := range c.SubtreeNames() {
		out = append(out, st.byClass[name]...)
	}
	return out
}

// LookupUnique resolves a unique field value to its live owner. The class
// must be the one declaring the unique field (e.g. Node for id).
func (st *Store) LookupUnique(class, field string, value any) (UID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	uid, ok := st.unique[uniqueKey{class: class, field: field}][valueKey(value)]
	return uid, ok
}

// Stats returns live per-class record counts for the planner's cost model.
func (st *Store) Stats() *schema.Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	counts := make(map[string]int, len(st.classCount))
	for k, v := range st.classCount {
		counts[k] = v
	}
	return &schema.Stats{ClassCount: counts}
}

// Counts reports the number of live objects and total stored versions —
// the inputs to the history-overhead experiment (§6: 60 days of history
// cost 6%/16% extra versions versus ~5,900% for 60 full copies).
func (st *Store) Counts() (live, versions int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.liveCount, st.versionCount
}

// UIDRange reports the half-open range of UIDs ever allocated, for
// iteration by backends building derived indexes.
func (st *Store) UIDRange() (lo, hi UID) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return 1, st.nextUID
}
