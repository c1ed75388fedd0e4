package graph

import (
	"context"
	"fmt"
	"time"

	"repro/internal/schema"
)

// Mutation is the logical write-ahead record of one committed store
// mutation: the operation, the object it touched, and the transaction
// timestamp the store stamped it with. Replaying a mutation stream through
// ApplyMutation on an empty store (or on a checkpoint prefix of the same
// stream) reproduces the identical temporal version history, because every
// sys_period bound is derived from At rather than from a live clock.
//
// A Delete mutation carries only the deleted UID: the cascade to live
// incident edges is deterministic (adjacency slices preserve insertion
// order) and re-derived on replay, all closed at the same timestamp.
type Mutation struct {
	Op       MutationOp
	UID      UID
	Class    string // concrete class name; inserts only
	Src, Dst UID    // edge endpoints; InsertEdge only
	Fields   Fields // full field map; inserts and updates
	At       time.Time
}

// MutationOp enumerates the store's write operations.
type MutationOp uint8

const (
	OpInsertNode MutationOp = iota + 1
	OpInsertEdge
	OpUpdate
	OpDelete
)

// String returns the wire name of the operation.
func (op MutationOp) String() string {
	switch op {
	case OpInsertNode:
		return "insert_node"
	case OpInsertEdge:
		return "insert_edge"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// MutationHook observes every batch of writes once: after each of its ops
// is validated and stamped, immediately before the last of them is
// applied, while the store's write lock is held — so the hook call order
// is exactly the store's serialization order. The slice is the stamped
// group in op order, leaving out ops that apply nothing (a delete of a
// deleted object); it is the store's and valid only for the call, but the
// mutations it holds may be kept. A non-nil error rejects the whole batch:
// nothing of it is applied and the caller sees the error. Durability
// layers (internal/wal) append and sync the group here, which makes "hook
// returned nil" the acknowledgement point: every acknowledged write is on
// disk before it is visible in memory. The context is the writer's
// request context, carrying trace identity so the durability layer can
// attach its spans (e.g. the WAL append) to the request's trace.
type MutationHook func(context.Context, []*Mutation) error

// SetMutationHook installs the hook (nil removes it). Install before the
// store starts serving writes; the hook itself must not call back into the
// store (the write lock is held).
func (st *Store) SetMutationHook(h MutationHook) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hook = h
}

// BatchError reports the op that rejected a batch of more than one
// mutation. Nothing of the batch was applied or logged.
type BatchError struct {
	Index int // the rejected op's position in the batch
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("op %d: %v", e.Index, e.Err) }
func (e *BatchError) Unwrap() error { return e.Err }

// Mutate validates, stamps, logs and applies a batch of live writes as one
// atomic group, under one hold of the write lock. Op i is validated
// against the store as ops 0…i−1 left it. The store stamps every op itself
// (an insert's UID, every write's At) after clearing the fields its op
// does not carry, and hands the stamped group to the hook once, so the
// records the hook logs are the ones replay will apply. If an op is
// rejected or the hook fails, the batch restores what it changed: nothing
// of it is applied, logged or seen by a reader. A rejected op of a batch
// of more than one is reported as a *BatchError. The context reaches the
// hook: a WAL-backed write's append span lands in the caller's trace.
// Deleting a deleted object is a no-op that logs nothing.
func (st *Store) Mutate(ctx context.Context, ms ...*Mutation) error {
	for i, m := range ms {
		m.clearUnused()
		if err := st.checkRecord(m); err != nil {
			return batchErr(ms, i, err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, bad, err := st.applyLocked(ctx, ms, false, nil); err != nil {
		if bad < 0 {
			return err
		}
		return batchErr(ms, bad, err)
	}
	return nil
}

// ApplyMutation replays one logged group — the records of one Mutate
// batch — at their recorded UIDs and timestamps, bypassing the clock and
// the hook, under one hold of the write lock, so a reader sees all of the
// group or none of it. It validates exactly like Mutate and additionally
// skips records the store already reflects — an insert of an existing
// UID, an update whose version already exists, a delete of an
// already-closed object — returning how many records it applied. That
// idempotence is what lets recovery replay a log whose prefix overlaps
// the checkpoint it starts from. A group with a rejected record applies
// nothing.
func (st *Store) ApplyMutation(ms ...*Mutation) (applied int, err error) {
	return st.ApplyLogged(nil, ms...)
}

// ApplyLogged is ApplyMutation with a log step: log runs once every
// record of the group has validated, under the same hold of the write
// lock, before the last record is applied — the validate → log → apply
// order of a live write's hook. It runs even when the store already
// reflects every record, so a replica logs each shipped group at its
// stream position. A log error applies nothing and is returned as is.
func (st *Store) ApplyLogged(log func() error, ms ...*Mutation) (applied int, err error) {
	for _, m := range ms {
		if err := st.checkRecord(m); err != nil {
			return 0, replayErr(m, err)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	applied, bad, err := st.applyLocked(context.Background(), ms, true, log)
	if err != nil {
		if bad < 0 {
			return 0, err
		}
		return 0, replayErr(ms[bad], err)
	}
	for _, m := range ms {
		st.clock.EnsureAfter(m.At)
	}
	return applied, nil
}

func batchErr(ms []*Mutation, i int, err error) error {
	if len(ms) == 1 {
		return err
	}
	return &BatchError{Index: i, Err: err}
}

func replayErr(m *Mutation, err error) error {
	return fmt.Errorf("graph: replaying %s %d: %w", m.Op, m.UID, err)
}

func (op MutationOp) isInsert() bool { return op == OpInsertNode || op == OpInsertEdge }

// clearUnused zeroes the fields m's op does not carry, so a live write
// logs only what replay reads.
func (m *Mutation) clearUnused() {
	switch m.Op {
	case OpInsertNode:
		m.Src, m.Dst = 0, 0
	case OpUpdate:
		m.Class, m.Src, m.Dst = "", 0, 0
	case OpDelete:
		m.Class, m.Src, m.Dst, m.Fields = "", 0, 0, nil
	}
}

// checkRecord is the part of a write's validation that reads no store
// state — an insert's record against its class, and the class's kind
// against the op — so both entry points run it before the write lock.
func (st *Store) checkRecord(m *Mutation) error {
	if !m.Op.isInsert() {
		return nil
	}
	if err := st.schema.ValidateRecord(m.Class, m.Fields); err != nil {
		return err
	}
	kind := schema.NodeKind
	if m.Op == OpInsertEdge {
		kind = schema.EdgeKind
	}
	if c, _ := st.schema.Class(m.Class); c.Kind != kind {
		return fmt.Errorf("graph: class %q is a %s class", m.Class, c.Kind)
	}
	return nil
}

// applyLocked is the one body of every batch, live or replayed, after
// checkRecord. Each op is validated against the store as the ops before
// it left it, and a live op is then stamped. Every op but the last is
// applied at once, journaled by the undo log; the last is applied only
// after the hook accepted the group, so a one-op write keeps validate →
// stamp → log → apply and journals nothing. A rejected op — bad is its
// index — or a hook or log error (bad < 0) rolls back the ops already
// applied. A replay keeps each record's UID and At, skips what the store
// already reflects, and calls log, when non-nil, in the hook's place. A
// delete of a closed object applies nothing in either mode.
func (st *Store) applyLocked(ctx context.Context, ms []*Mutation, replay bool, log func() error) (applied, bad int, err error) {
	batch := len(ms) > 1
	if batch {
		st.beginUndo()
	}
	var (
		last  *Mutation // the final op, applied after the hook
		lastP prepared
	)
	group := st.group[:0]
	for i, m := range ms {
		p, skip, err := st.prepareLocked(m, replay)
		if err != nil {
			clear(group)
			if batch {
				st.rollbackUndo()
			}
			return 0, i, err
		}
		if skip {
			continue
		}
		if !replay {
			if m.Op.isInsert() {
				m.UID = st.nextUID
			}
			m.At = st.clock.Next()
			group = append(group, m)
		}
		applied++
		if i == len(ms)-1 {
			last, lastP = m, p
		} else {
			st.commitLocked(m, p)
		}
	}
	st.group = group
	switch {
	case log != nil:
		err = log()
	case len(group) > 0 && st.hook != nil:
		err = st.hook(ctx, group)
	}
	clear(group)
	if err != nil {
		if batch {
			st.rollbackUndo()
		}
		return 0, -1, fmt.Errorf("graph: mutation rejected by log: %w", err)
	}
	if batch {
		st.endUndo()
	}
	if last != nil {
		st.commitLocked(last, lastP)
	}
	return applied, 0, nil
}

// prepared is what prepareLocked resolved for a record it accepted: the
// class an insert installs or the element an update or delete changes,
// and an insert's or update's values as a record of that class.
type prepared struct {
	c   *schema.Class
	obj *Elem
	rec schema.Record
}

// prepareLocked validates m against the store — edge endpoints and rules,
// unique fields, the element an update or delete targets — and lays an
// insert's or update's field map out as a record, once. An update's
// record keeps the open version's values for the fields it re-sends
// unchanged. skip reports a record that applies nothing: a delete of a
// closed element, or in a replay a record the store already reflects.
func (st *Store) prepareLocked(m *Mutation, replay bool) (p prepared, skip bool, err error) {
	switch m.Op {
	case OpInsertNode, OpInsertEdge:
		if replay {
			if existing := st.objects.at(m.UID); existing != nil {
				if existing.Class.Name != m.Class {
					return p, false, fmt.Errorf("graph: store has class %s, log says %s", existing.Class.Name, m.Class)
				}
				return p, true, nil // already present (checkpoint overlap)
			}
			if err := st.admitUID(m.UID); err != nil {
				return p, false, err
			}
		}
		p.c, _ = st.schema.Class(m.Class) // resolved by checkRecord
		if m.Op == OpInsertEdge {
			srcObj, dstObj := st.objects.at(m.Src), st.objects.at(m.Dst)
			if srcObj == nil || srcObj.Current() == nil || srcObj.IsEdge() {
				return p, false, fmt.Errorf("graph: edge %s source %d is not a live node", m.Class, m.Src)
			}
			if dstObj == nil || dstObj.Current() == nil || dstObj.IsEdge() {
				return p, false, fmt.Errorf("graph: edge %s target %d is not a live node", m.Class, m.Dst)
			}
			if !st.schema.EdgeAllowed(p.c, srcObj.Class, dstObj.Class) {
				return p, false, fmt.Errorf("graph: schema permits no %s edge from %s to %s",
					m.Class, srcObj.Class, dstObj.Class)
			}
		}
		p.rec = p.c.NewRecord(m.Fields, nil)
		if err := st.claimUnique(p.c, p.rec, 0); err != nil {
			return p, false, err
		}
	case OpUpdate, OpDelete:
		obj := st.objects.at(m.UID)
		if obj == nil {
			return p, false, fmt.Errorf("graph: %s of unknown uid %d", m.Op, m.UID)
		}
		if replay && m.Op == OpUpdate {
			for i := range obj.Versions {
				if obj.Versions[i].Period.Start.Equal(m.At) {
					return p, true, nil // version already present (checkpoint overlap)
				}
			}
		}
		cur := obj.Current()
		if cur == nil {
			if m.Op == OpDelete {
				return p, true, nil // already closed
			}
			return p, false, fmt.Errorf("graph: update of deleted object %d", m.UID)
		}
		p.obj = obj
		if m.Op == OpUpdate {
			if err := st.schema.ValidateRecord(obj.Class.Name, m.Fields); err != nil {
				return p, false, err
			}
			p.rec = obj.Class.NewRecord(m.Fields, cur.Rec)
			if err := st.claimUnique(obj.Class, p.rec, m.UID); err != nil {
				return p, false, err
			}
		}
	default:
		return p, false, fmt.Errorf("graph: unknown mutation op %d", m.Op)
	}
	return p, false, nil
}

// commitLocked applies a record prepareLocked accepted.
func (st *Store) commitLocked(m *Mutation, p prepared) {
	switch m.Op {
	case OpInsertNode, OpInsertEdge:
		st.installLocked(p.c, m.UID, m.Src, m.Dst, p.rec, m.At)
	case OpUpdate:
		st.updateLocked(p.obj, p.rec, m.At)
	case OpDelete:
		st.deleteAtLocked(p.obj, m.At)
	}
}
