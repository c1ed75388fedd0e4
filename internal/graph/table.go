package graph

import "fmt"

// table is an array indexed by UID, split into fixed-size pages: a
// directory of page pointers, long enough for the largest UID written,
// and pages allocated on the first write into their range. An allocated
// page never moves, so growth copies only the directory, and a UID whose
// page was never written reads as the zero T. UIDs are dense — the store
// allocates them in order and never reuses one — so a table wastes at
// most the unused tail of its last page, plus the slots of UIDs that are
// not the table's kind (an edge's adjacency slots) on pages that hold
// some that are.
//
// The directory is sized by the largest UID written, so the store writes
// only UIDs it admits (admitUID): the ones it allocates itself, and
// replayed or restored ones near its allocation frontier.
type table[T any] struct {
	dir []*[pageSize]T
}

const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// at returns uid's entry, or the zero T when its page was never written.
// Any UID may be read, 0 and negative ones included.
func (t *table[T]) at(uid UID) T {
	if p := uint64(uid) >> pageBits; p < uint64(len(t.dir)) {
		if pg := t.dir[p]; pg != nil {
			return pg[uid&pageMask]
		}
	}
	var zero T
	return zero
}

// slot returns uid's entry for writing, allocating its page and growing
// the directory on first touch. uid must be non-negative.
func (t *table[T]) slot(uid UID) *T {
	p := int(uid >> pageBits)
	if p >= len(t.dir) {
		t.dir = append(t.dir, make([]*[pageSize]T, p+1-len(t.dir))...)
	}
	pg := t.dir[p]
	if pg == nil {
		pg = new([pageSize]T)
		t.dir[p] = pg
	}
	return &pg[uid&pageMask]
}

// end returns one past the highest UID the allocated pages cover: every
// entry ever written lies below it.
func (t *table[T]) end() UID { return UID(len(t.dir)) << pageBits }

// maxUIDGap bounds how far past the allocation frontier (nextUID) a
// replayed record or a restored object may name a UID. A valid log or
// checkpoint never skips ahead at all; the bound only keeps a corrupt one
// from sizing a table's directory for a UID like 1<<62. A UID within it
// costs at most a directory of maxUIDGap/pageSize pointers and one page.
const maxUIDGap = 1 << 20

// admitUID rejects a UID the store did not allocate itself when it is
// not positive or lies more than maxUIDGap past the allocation frontier,
// before anything is written for it.
func (st *Store) admitUID(uid UID) error {
	if uid <= 0 {
		return fmt.Errorf("graph: invalid uid %d", uid)
	}
	if uid-st.nextUID >= maxUIDGap {
		return fmt.Errorf("graph: uid %d lies beyond the allocation frontier %d", uid, st.nextUID)
	}
	return nil
}
