package schema

import (
	"slices"
	"strings"
)

// Record is one stored version's field values in its class's layout: slot
// i holds the value of field i of Class.Fields, and a nil slot is an
// absent field (ValidateRecord rejects nil values, so nil is never a
// value). Fields lists inherited fields first, so a field has the same
// slot in the records of every subclass of the class declaring it, and a
// predicate resolved against a class reads its subclasses' records
// unchanged. It is the in-memory form of the paper's relational mapping:
// one row of the class's table, one column per declared field.
//
// A slot holds the value the field map held, of the same dynamic type.
// A record is immutable once stored.
type Record []any

// IDSlot is the slot of the id field every class inherits from its root
// (New declares it first).
const IDSlot = 0

// Slot returns the slot of the named field in c's records.
func (c *Class) Slot(name string) (int, bool) {
	if c.slots != nil {
		i, ok := c.slots[name]
		return i, ok
	}
	for i, f := range c.Fields() {
		if f.Name == name {
			return i, true
		}
	}
	return -1, false
}

// NameOrder returns c's slots in ascending field-name order: the order
// the binary codec writes a field map in. The result is cached after
// Finalize and must not be modified.
func (c *Class) NameOrder() []int {
	if c.slots != nil {
		return c.byName
	}
	fields := c.Fields()
	order := make([]int, len(fields))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(fields[a].Name, fields[b].Name) })
	return order
}

// NewRecord lays out the field map m, which must be valid for c
// (ValidateRecord), as a record of c. A slot whose value equals prev's
// value in the same slot, as a primitive of the same dynamic type, keeps
// prev's value rather than m's: a new version of a record that re-sends
// unchanged fields then holds nothing the previous version does not
// already hold. prev may be nil.
func (c *Class) NewRecord(m map[string]any, prev Record) Record {
	fields := c.Fields()
	r := make(Record, len(fields))
	for i := range fields {
		v, ok := m[fields[i].Name]
		if !ok {
			continue
		}
		if i < len(prev) && samePrimitive(prev[i], v) {
			v = prev[i]
		}
		r[i] = v
	}
	return r
}

// samePrimitive reports whether old and v are the same primitive value of
// the same dynamic type. Containers are never the same: comparing them
// would walk them, and they may be shared with the caller.
func samePrimitive(old, v any) bool {
	switch v.(type) {
	case string, int, int32, int64, float32, float64, bool:
		return old == v // differing dynamic types compare unequal
	}
	return false
}

// Map returns the field map r holds, as a fresh map: the inverse of
// NewRecord.
func (c *Class) Map(r Record) map[string]any {
	fields := c.Fields()
	n := 0
	for _, v := range r {
		if v != nil {
			n++
		}
	}
	m := make(map[string]any, n)
	for i, v := range r {
		if v != nil {
			m[fields[i].Name] = v
		}
	}
	return m
}
