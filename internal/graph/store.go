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
	"sort"
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

// Object is a node or edge with its full version history, in the map form
// tools, tests and examples read: Store.Object decodes it from the stored
// Elem. Versions are ordered by period start and non-overlapping; the last
// one is open (IsCurrent) unless the object has been deleted.
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
	ns := temporal.Nanos(t)
	for i := len(o.Versions) - 1; i >= 0; i-- {
		if o.Versions[i].Period.Contains(ns) {
			return &o.Versions[i]
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

// Row is one temporal version of an Elem: the slot record of the values
// that held from Start until the next row's Start or, for the last row,
// until the element's End.
type Row struct {
	Rec   schema.Record
	Start int64
}

// Elem is a node or edge as the store keeps it: its class, endpoints and
// version history, each version a slot record of its class (one row of
// the class's table in the paper's relational mapping). Versions are
// ordered by start and meet: an update closes a version exactly where the
// next one starts, so only the last version's end is stored, as End. The
// last version is open (End is temporal.Forever) unless the element has
// been deleted.
//
// Versions is append-only, and an Elem header is immutable once the store
// has published it. A write that changes an element publishes a fresh
// header under the write lock: an update appends its row past the
// published length, len(Versions), in place when the array has room, and
// a delete sets only the new header's End. No row a published header
// covers is ever written again. So a reader holding an *Elem from Elem
// (or an index) reads it without a lock and never sees a version closed
// or appended underneath it. A batch that rolls back restores the earlier
// header; the row it appended past that header's length was never
// published, and the next update writes that slot again.
type Elem struct {
	UID   UID
	Class *schema.Class
	// Src and Dst are the endpoint node UIDs; meaningful for edges only.
	Src, Dst UID
	Versions []Row
	// End is when the last version closed: temporal.Forever while it is
	// open.
	End int64
}

// IsEdge reports whether the element is an edge.
func (e *Elem) IsEdge() bool { return e.Class.IsEdge() }

// Period returns version i's period: from its start to the next
// version's start, or to End for the last version.
func (e *Elem) Period(i int) temporal.Interval {
	if i+1 < len(e.Versions) {
		return temporal.Between(e.Versions[i].Start, e.Versions[i+1].Start)
	}
	return temporal.Between(e.Versions[i].Start, e.End)
}

// Current returns the open version, or nil when the element is deleted.
func (e *Elem) Current() *Row {
	if n := len(e.Versions); n > 0 && e.End == temporal.Forever {
		return &e.Versions[n-1]
	}
	return nil
}

// VersionAt returns the version visible at time t, or nil. Versions are
// ordered by start, so one binary search finds the last one starting at
// or before t: O(log v) in the element's history. The versions meet, so
// t lies inside every one found but the last, which ends at End.
func (e *Elem) VersionAt(t int64) *Row {
	vs := e.Versions
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Start > t })
	if i == 0 || (i == len(vs) && t >= e.End) {
		return nil
	}
	return &vs[i-1]
}

// Lifetime returns the normalized set of periods during which the element
// existed (across all versions, regardless of field changes).
func (e *Elem) Lifetime() temporal.Set {
	s := make(temporal.Set, len(e.Versions))
	for i := range e.Versions {
		s[i] = e.Period(i)
	}
	return s.Normalize()
}

// object decodes e into its map form.
func (e *Elem) object() *Object {
	o := &Object{UID: e.UID, Class: e.Class, Src: e.Src, Dst: e.Dst, Versions: make([]Version, len(e.Versions))}
	for i, v := range e.Versions {
		o.Versions[i] = Version{Fields: e.Class.Map(v.Rec), Period: e.Period(i)}
	}
	return o
}

// Store is the temporal graph store. All methods are safe for concurrent
// use; reads proceed under a shared lock.
type Store struct {
	mu     sync.RWMutex
	schema *schema.Schema
	clock  *temporal.Clock

	// objects holds every element ever stored, at its UID; nextUID is the
	// allocation frontier, one past the largest UID allocated.
	objects table[*Elem]
	nextUID UID

	// out and in hold, at a node's UID, the UIDs of its outgoing/incoming
	// edges (all classes, all times; visibility is filtered temporally at
	// read).
	out table[[]UID]
	in  table[[]UID]

	// byClass maps a concrete class name to the UIDs of its objects.
	byClass map[string][]UID

	// unique indexes enforce schema Unique fields: for each declaring class
	// and field, the live holder of each value (unique.go).
	unique map[uniqueKey]*uniqueIndex
	// released holds, per unique field and value (by releaseHash), the
	// latest transaction time at which an element gave the value up,
	// deleted or updated to another value. The live index answers for the
	// value at every instant from then on; an earlier instant may belong
	// to a holder it has forgotten (LookupUniqueSince). Values that share
	// a hash share the latest time, which only makes a lookup inexact
	// sooner; the map holds no value key's string.
	released map[uint64]int64

	// classCount tracks live objects per concrete class (statistics for the
	// anchor cost model). stats is the copy Stats hands out, kept until a
	// count changes: addClassCount and LoadHistory clear it under the
	// write lock (an undo rollback only follows writes that did), and the
	// next Stats rebuilds it under statsMu, which orders the readers
	// racing to do so.
	classCount map[string]int
	statsMu    sync.Mutex
	stats      *schema.Stats
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
		unique:     make(map[uniqueKey]*uniqueIndex),
		released:   make(map[uint64]int64),
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
func (st *Store) Now() time.Time { return temporal.Time(st.clock.Now()) }

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
	return temporal.Time(st.clock.Fence())
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

// installLocked installs a fully validated element at a fixed timestamp.
func (st *Store) installLocked(c *schema.Class, uid UID, src, dst UID, rec schema.Record, ts int64) {
	st.setObject(uid, &Elem{
		UID:      uid,
		Class:    c,
		Src:      src,
		Dst:      dst,
		Versions: []Row{{Rec: rec, Start: ts}},
		End:      temporal.Forever,
	})
	st.appendByClass(c.Name, uid)
	st.addClassCount(c.Name, 1)
	st.versionCount++
	st.liveCount++
	st.recordUnique(c, rec, uid)
	if c.IsEdge() {
		st.appendAdjacency(src, dst, uid)
	}
	if uid >= st.nextUID {
		st.nextUID = uid + 1
	}
}

// updateLocked closes obj's open version and opens a new one at a fixed
// timestamp: it appends the new row past obj's published length and
// publishes a fresh header over it. The closed version ends where the new
// row starts, so no row is written but the appended one.
func (st *Store) updateLocked(obj *Elem, rec schema.Record, t int64) {
	st.moveUnique(obj.Class, obj.Current().Rec, rec, obj.UID, t)
	next := *obj
	next.Versions = append(obj.Versions, Row{Rec: rec, Start: t})
	next.End = temporal.Forever
	st.setObject(obj.UID, &next)
	st.versionCount++
}

// deleteAtLocked closes the element — and, for a node, its live incident
// edges — at one shared timestamp t, so the whole cascade is a single
// atomic transaction-time event that log replay reproduces exactly.
func (st *Store) deleteAtLocked(obj *Elem, t int64) {
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

func (st *Store) closeIfLive(uid UID, t int64) {
	if obj := st.objects.at(uid); obj != nil && obj.Current() != nil {
		st.closeObject(obj, t)
	}
}

func (st *Store) closeObject(obj *Elem, t int64) {
	st.moveUnique(obj.Class, obj.Current().Rec, nil, obj.UID, t)
	next := *obj
	next.End = t
	st.setObject(obj.UID, &next)
	st.addClassCount(obj.Class.Name, -1)
	st.liveCount--
}

// Elem returns the stored element with the given UID, or nil. It is the
// engine's read. The header it returns is immutable, so the caller reads
// it without a lock; the read lock Elem takes guards only the table probe
// itself, which a published read snapshot would make lock-free.
func (st *Store) Elem(uid UID) *Elem {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.objects.at(uid)
}

// Object returns the object with the given UID in map form, or nil: a
// fresh decode of the stored element, for tools, tests and examples. The
// engine reads Elem.
func (st *Store) Object(uid UID) *Object {
	if e := st.Elem(uid); e != nil {
		return e.object()
	}
	return nil
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

// Stats returns live per-class record counts for the planner's cost model.
// The result is a snapshot shared by every caller until a write changes
// a count, and must not be modified.
func (st *Store) Stats() *schema.Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	if st.stats == nil {
		counts := make(map[string]int, len(st.classCount))
		for k, v := range st.classCount {
			counts[k] = v
		}
		st.stats = &schema.Stats{ClassCount: counts}
	}
	return st.stats
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
