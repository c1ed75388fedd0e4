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

// ParseMutationOp is the inverse of MutationOp.String.
func ParseMutationOp(s string) (MutationOp, error) {
	switch s {
	case "insert_node":
		return OpInsertNode, nil
	case "insert_edge":
		return OpInsertEdge, nil
	case "update":
		return OpUpdate, nil
	case "delete":
		return OpDelete, nil
	}
	return 0, fmt.Errorf("graph: unknown mutation op %q", s)
}

// MutationHook observes every mutation after validation and immediately
// before it is applied, while the store's write lock is held — so the hook
// call order is exactly the store's serialization order. A non-nil error
// aborts the mutation: nothing is applied and the caller sees the error.
// Durability layers (internal/wal) append and sync here, which makes
// "hook returned nil" the acknowledgement point: every acknowledged write
// is on disk before it is visible in memory. The context is the writer's
// request context, carrying trace identity so the durability layer can
// attach its spans (e.g. the WAL append) to the request's trace.
type MutationHook func(context.Context, *Mutation) error

// SetMutationHook installs the hook (nil removes it). Install before the
// store starts serving writes; the hook itself must not call back into the
// store (the write lock is held).
func (st *Store) SetMutationHook(h MutationHook) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hook = h
}

// Mutate validates, stamps, logs and applies one live write. The store
// stamps m itself (an insert's UID, every write's At) after clearing the
// fields m's op does not carry, so the record the hook logs is the one
// replay will apply. The context reaches the hook: a WAL-backed write's
// append span lands in the caller's trace. Mutate returns the UID an
// insert was given, 0 for update and delete. Deleting a deleted object is
// a no-op that logs nothing.
func (st *Store) Mutate(ctx context.Context, m *Mutation) (UID, error) {
	switch m.Op {
	case OpInsertNode:
		m.Src, m.Dst = 0, 0
	case OpUpdate:
		m.Class, m.Src, m.Dst = "", 0, 0
	case OpDelete:
		m.Class, m.Src, m.Dst, m.Fields = "", 0, 0, nil
	}
	if err := st.checkRecord(m); err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.applyLocked(ctx, m, false); err != nil || !m.Op.isInsert() {
		return 0, err
	}
	return m.UID, nil
}

// ApplyMutation replays one logged mutation at its recorded UID and
// timestamp, bypassing the clock and the hook. It validates exactly like
// Mutate and additionally tolerates records the store already reflects —
// an insert of an existing UID, an update whose version already exists, a
// delete of an already-closed object — reporting applied=false for them.
// That idempotence is what lets recovery replay a log whose prefix
// overlaps the checkpoint it starts from.
func (st *Store) ApplyMutation(m *Mutation) (applied bool, err error) {
	if err = st.checkRecord(m); err == nil {
		st.mu.Lock()
		applied, err = st.applyLocked(context.Background(), m, true)
		st.clock.EnsureAfter(m.At)
		st.mu.Unlock()
	}
	if err != nil {
		return false, fmt.Errorf("graph: replaying %s %d: %w", m.Op, m.UID, err)
	}
	return applied, nil
}

func (op MutationOp) isInsert() bool { return op == OpInsertNode || op == OpInsertEdge }

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

// applyLocked is the one body of every write, live or replayed, after
// checkRecord: it validates m against the store (edge endpoints and
// rules, unique fields, the object an update or delete targets) and
// applies it. A live write is stamped and handed to the hook before it is
// applied, so log order is apply order and a hook error applies nothing.
// A replay keeps the record's UID and At, and first skips with
// applied=false what the store already reflects. A delete of a closed
// object applies nothing in either mode.
func (st *Store) applyLocked(ctx context.Context, m *Mutation, replay bool) (applied bool, err error) {
	var c *schema.Class
	var obj *Object
	switch m.Op {
	case OpInsertNode, OpInsertEdge:
		if replay {
			if existing := st.objects[m.UID]; existing != nil {
				if existing.Class.Name != m.Class {
					return false, fmt.Errorf("graph: store has class %s, log says %s", existing.Class.Name, m.Class)
				}
				return false, nil // already present (checkpoint overlap)
			}
			if m.UID <= 0 {
				return false, fmt.Errorf("graph: invalid uid %d", m.UID)
			}
		}
		c, _ = st.schema.Class(m.Class) // resolved by checkRecord
		if m.Op == OpInsertEdge {
			srcObj, dstObj := st.objects[m.Src], st.objects[m.Dst]
			if srcObj == nil || srcObj.Current() == nil || srcObj.IsEdge() {
				return false, fmt.Errorf("graph: edge %s source %d is not a live node", m.Class, m.Src)
			}
			if dstObj == nil || dstObj.Current() == nil || dstObj.IsEdge() {
				return false, fmt.Errorf("graph: edge %s target %d is not a live node", m.Class, m.Dst)
			}
			if !st.schema.EdgeAllowed(c, srcObj.Class, dstObj.Class) {
				return false, fmt.Errorf("graph: schema permits no %s edge from %s to %s",
					m.Class, srcObj.Class, dstObj.Class)
			}
		}
		if err := st.claimUnique(c, m.Fields, 0); err != nil {
			return false, err
		}
	case OpUpdate, OpDelete:
		if obj = st.objects[m.UID]; obj == nil {
			return false, fmt.Errorf("graph: %s of unknown uid %d", m.Op, m.UID)
		}
		if replay && m.Op == OpUpdate {
			for i := range obj.Versions {
				if obj.Versions[i].Period.Start.Equal(m.At) {
					return false, nil // version already present (checkpoint overlap)
				}
			}
		}
		if obj.Current() == nil {
			if m.Op == OpDelete {
				return false, nil // already closed
			}
			return false, fmt.Errorf("graph: update of deleted object %d", m.UID)
		}
		if m.Op == OpUpdate {
			if err := st.schema.ValidateRecord(obj.Class.Name, m.Fields); err != nil {
				return false, err
			}
			if err := st.claimUnique(obj.Class, m.Fields, m.UID); err != nil {
				return false, err
			}
		}
	default:
		return false, fmt.Errorf("graph: unknown mutation op %d", m.Op)
	}

	if !replay {
		if m.Op.isInsert() {
			m.UID = st.nextUID
		}
		m.At = st.clock.Next()
		if st.hook != nil {
			if err := st.hook(ctx, m); err != nil {
				return false, fmt.Errorf("graph: mutation rejected by log: %w", err)
			}
		}
	}
	switch m.Op {
	case OpInsertNode, OpInsertEdge:
		st.installLocked(c, m.UID, m.Src, m.Dst, m.Fields, m.At)
	case OpUpdate:
		st.updateLocked(obj, m.Fields, m.At)
	case OpDelete:
		st.deleteAtLocked(obj, m.At)
	}
	return true, nil
}
