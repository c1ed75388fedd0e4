package graph

// undoLog journals what a multi-op batch changes, so a batch that fails
// part-way — an op rejected, or the log refusing the group — is restored
// before the write lock is released and no reader ever sees it. Every
// structure a write touches is changed through one of the record helpers
// below; each appends what it replaces while the log is on. The scalar
// counters are snapshotted once instead. The entry slice is reused from
// batch to batch, and a one-op batch never turns the log on: its single
// op is applied only after the hook accepted it, so it has nothing to
// undo.
type undoLog struct {
	on      bool
	entries []undoEntry

	nextUID                 UID
	versionCount, liveCount int
}

type undoKind uint8

const (
	undoObject     undoKind = iota + 1 // objects[uid] was obj (nil: absent)
	undoOut                            // out[uid] had length n
	undoIn                             // in[uid] had length n
	undoByClass                        // byClass[name] had length n (0: absent)
	undoClassCount                     // classCount[name] was n (had: present)
	undoUnique                         // index[key] was uid (0: absent)
)

type undoEntry struct {
	kind  undoKind
	had   bool
	uid   UID
	n     int
	obj   *Elem
	name  string
	index *uniqueIndex
	key   indexKey
}

// beginUndo turns the journal on for a batch.
func (st *Store) beginUndo() {
	u := &st.undo
	u.on = true
	u.nextUID, u.versionCount, u.liveCount = st.nextUID, st.versionCount, st.liveCount
}

// endUndo turns the journal off and forgets it: the batch stands.
func (st *Store) endUndo() {
	u := &st.undo
	u.on = false
	clear(u.entries) // drop the replaced objects for the collector
	u.entries = u.entries[:0]
}

// rollbackUndo restores everything the batch changed since beginUndo, in
// reverse order, and turns the journal off.
func (st *Store) rollbackUndo() {
	u := &st.undo
	for i := len(u.entries) - 1; i >= 0; i-- {
		e := &u.entries[i]
		switch e.kind {
		case undoObject:
			*st.objects.slot(e.uid) = e.obj
		case undoOut:
			truncateIndex(st.out.slot(e.uid), e.n)
		case undoIn:
			truncateIndex(st.in.slot(e.uid), e.n)
		case undoByClass:
			if e.n == 0 {
				delete(st.byClass, e.name)
			} else {
				st.byClass[e.name] = st.byClass[e.name][:e.n]
			}
		case undoClassCount:
			if e.had {
				st.classCount[e.name] = e.n
			} else {
				delete(st.classCount, e.name)
			}
		case undoUnique:
			e.index.set(e.key, e.uid)
		}
	}
	st.nextUID, st.versionCount, st.liveCount = u.nextUID, u.versionCount, u.liveCount
	st.endUndo()
}

// truncateIndex cuts an append-only adjacency slice back to n entries,
// dropping it when it held none. Readers that took the slice before the
// batch hold a header no longer than n, so the entries past it that later
// appends overwrite were never theirs.
func truncateIndex(l *[]UID, n int) {
	if n == 0 {
		*l = nil
	} else {
		*l = (*l)[:n]
	}
}

// The record helpers journal only while the log is on, and build no
// entry otherwise: a one-op write pays one branch per change.

// setObject publishes obj as uid's object.
func (st *Store) setObject(uid UID, obj *Elem) {
	if st.undo.on {
		st.journal(undoEntry{kind: undoObject, uid: uid, obj: st.objects.at(uid)})
	}
	*st.objects.slot(uid) = obj
}

// appendAdjacency records edge as outgoing from src and incoming to dst.
func (st *Store) appendAdjacency(src, dst, edge UID) {
	out, in := st.out.slot(src), st.in.slot(dst)
	if st.undo.on {
		st.journal(undoEntry{kind: undoOut, uid: src, n: len(*out)})
		st.journal(undoEntry{kind: undoIn, uid: dst, n: len(*in)})
	}
	*out = append(*out, edge)
	*in = append(*in, edge)
}

// appendByClass records uid as an object of the named concrete class.
func (st *Store) appendByClass(name string, uid UID) {
	if st.undo.on {
		st.journal(undoEntry{kind: undoByClass, name: name, n: len(st.byClass[name])})
	}
	st.byClass[name] = append(st.byClass[name], uid)
}

// addClassCount moves the named class's live count by d.
func (st *Store) addClassCount(name string, d int) {
	if st.undo.on {
		n, had := st.classCount[name]
		st.journal(undoEntry{kind: undoClassCount, name: name, n: n, had: had})
	}
	st.classCount[name] += d
	st.stats = nil
}

// setUnique makes uid the owner of value k in one unique index (uid 0
// releases it).
func (st *Store) setUnique(x *uniqueIndex, k indexKey, uid UID) {
	if st.undo.on {
		held, _ := x.get(k)
		st.journal(undoEntry{kind: undoUnique, index: x, key: k, uid: held})
	}
	x.set(k, uid)
}

func (st *Store) journal(e undoEntry) {
	st.undo.entries = append(st.undo.entries, e)
}
