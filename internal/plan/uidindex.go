package plan

import "repro/internal/graph"

// uidIndex maps the UIDs one evaluation touches to their element-table
// entries. It is a two-level radix table over the UID: a top directory
// indexed by uid>>(idxPageBits+idxDirBits), directories of idxDirSize
// page pointers, and pages of idxPageSize entries, each directory and
// page allocated on the first write into its range. An evaluation
// touching k elements scattered over a UID range therefore allocates at
// most k pages and k directories plus a top directory of one pointer per
// idxPageSize*idxDirSize UIDs of the range — 16 pointers at a million
// UIDs — never an entry per UID.
//
// Reset is a generation bump, not a clear: a page stamped with an older
// generation reads as empty and is cleared when first written in the new
// one. So a pooled index keeps its pages, and an evaluation pays to
// clear only the pages it touches.
type uidIndex struct {
	gen uint32
	top []*[idxDirSize]*idxPage
}

// idxPage holds the entries of idxPageSize consecutive UIDs, as entry
// number plus one (zero: absent), valid only when gen is the index's.
type idxPage struct {
	gen  uint32
	ents [idxPageSize]int32
}

const (
	idxPageBits = 8
	idxPageSize = 1 << idxPageBits
	idxDirBits  = 8
	idxDirSize  = 1 << idxDirBits
)

// reset empties the index for the next evaluation.
func (x *uidIndex) reset() {
	if x.gen++; x.gen == 0 {
		// The stamp wrapped: a page last written 2^32 resets ago would
		// read as current. Drop the pages instead.
		clear(x.top)
		x.gen = 1
	}
}

// get returns uid's entry, if it has one in this generation.
func (x *uidIndex) get(uid graph.UID) (int32, bool) {
	u := uint64(uid)
	if t := u >> (idxPageBits + idxDirBits); t < uint64(len(x.top)) {
		if dir := x.top[t]; dir != nil {
			if pg := dir[(u>>idxPageBits)%idxDirSize]; pg != nil && pg.gen == x.gen {
				if e := pg.ents[u%idxPageSize]; e != 0 {
					return e - 1, true
				}
			}
		}
	}
	return 0, false
}

// set records entry i for uid, which must be positive.
func (x *uidIndex) set(uid graph.UID, i int32) {
	u := uint64(uid)
	t := int(u >> (idxPageBits + idxDirBits))
	if t >= len(x.top) {
		x.top = append(x.top, make([]*[idxDirSize]*idxPage, t+1-len(x.top))...)
	}
	dir := x.top[t]
	if dir == nil {
		dir = new([idxDirSize]*idxPage)
		x.top[t] = dir
	}
	pg := dir[(u>>idxPageBits)%idxDirSize]
	if pg == nil {
		pg = new(idxPage)
		dir[(u>>idxPageBits)%idxDirSize] = pg
	}
	if pg.gen != x.gen {
		clear(pg.ents[:])
		pg.gen = x.gen
	}
	pg.ents[u%idxPageSize] = i + 1
}
