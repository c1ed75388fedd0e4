package plan

// DropIdleStates empties the evaluation-state free list, so the next
// evaluation starts from a fresh state: for tests that measure a cold one.
func DropIdleStates() {
	idleStates.Lock()
	defer idleStates.Unlock()
	clear(idleStates.list)
	idleStates.list = idleStates.list[:0]
}
