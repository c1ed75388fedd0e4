package plan

// DropIdleStates empties the evaluation-state free list, so the next
// evaluation starts from a fresh state: for tests that measure a cold one.
func DropIdleStates() {
	idleStates.Lock()
	defer idleStates.Unlock()
	clear(idleStates.list)
	idleStates.list = idleStates.list[:0]
}

// IdleHalvesCap reports the largest capacity of the completed-halves
// slab among the idle evaluation states.
func IdleHalvesCap() int {
	idleStates.Lock()
	defer idleStates.Unlock()
	n := 0
	for _, es := range idleStates.list {
		n = max(n, cap(es.halves))
	}
	return n
}
