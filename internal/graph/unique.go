package graph

import (
	"fmt"
	"strconv"

	"repro/internal/schema"
	"repro/internal/temporal"
)

// uniqueKey names one unique index: the class that declares a unique
// field, and the field.
type uniqueKey struct {
	class string
	field string
}

// uniqueIndex maps one unique field's values to their live holders. Its
// maps split the values by indexKey kind: integers in a map that holds
// no pointer, so the collector never scans it, and strings keyed by the
// record's own string, so an entry copies no bytes. Only the rare other
// kinds pay for a value key string.
type uniqueIndex struct {
	ints  map[int64]UID
	strs  map[string]UID
	other map[string]UID
}

type indexKind uint8

const (
	noKey    indexKind = iota // an absent value (a nil slot)
	intKey                    // an integer-valued numeric, by its integer
	strKey                    // a string, by itself
	otherKey                  // any other value, by its valueKey
)

// indexKey is a unique value as its index keys it. Two values share an
// indexKey exactly when they share a valueKey: 5, int64(5) and 5.0
// collide, "5" and 5 do not.
type indexKey struct {
	kind indexKind
	n    int64
	s    string
}

// keyOf returns v's index key; a nil v is noKey. Integers and strings
// are keyed without allocating.
func keyOf(v any) indexKey {
	if v == nil {
		return indexKey{}
	}
	if n, ok := integral(v); ok {
		return indexKey{kind: intKey, n: n}
	}
	if s, ok := v.(string); ok {
		return indexKey{kind: strKey, s: s}
	}
	return indexKey{kind: otherKey, s: valueKey(v)}
}

// String renders k as the valueKey it stands for.
func (k indexKey) String() string {
	switch k.kind {
	case intKey:
		return "i" + strconv.FormatInt(k.n, 10)
	case strKey:
		return "s" + k.s
	}
	return k.s
}

// integral returns the integer an integer-valued numeric holds: the
// values valueKey gives its "i" class.
func integral(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	case float64:
		if n == float64(int64(n)) {
			return int64(n), true
		}
	}
	return 0, false
}

// valueKey canonicalizes a field value as a string: all integer-valued
// numerics collapse to the same key so that 5, int64(5) and 5.0 collide.
// The unique index keys only the kinds without a typed map by it.
func valueKey(v any) string {
	var buf [32]byte
	if n, ok := integral(v); ok {
		return string(strconv.AppendInt(append(buf[:0], 'i'), n, 10))
	}
	switch n := v.(type) {
	case float64:
		return string(strconv.AppendFloat(append(buf[:0], 'f'), n, 'g', -1, 64))
	case string:
		return "s" + n
	case bool:
		return string(strconv.AppendBool(append(buf[:0], 'b'), n))
	}
	return fmt.Sprintf("v%v", v)
}

// get returns k's holder; a nil index holds nothing.
func (x *uniqueIndex) get(k indexKey) (UID, bool) {
	if x == nil {
		return 0, false
	}
	var uid UID
	var ok bool
	switch k.kind {
	case intKey:
		uid, ok = x.ints[k.n]
	case strKey:
		uid, ok = x.strs[k.s]
	case otherKey:
		uid, ok = x.other[k.s]
	}
	return uid, ok
}

// set makes uid k's holder; uid 0 removes k.
func (x *uniqueIndex) set(k indexKey, uid UID) {
	switch k.kind {
	case intKey:
		put(&x.ints, k.n, uid)
	case strKey:
		put(&x.strs, k.s, uid)
	case otherKey:
		put(&x.other, k.s, uid)
	}
}

func put[K comparable](m *map[K]UID, k K, uid UID) {
	if uid == 0 {
		delete(*m, k)
		return
	}
	if *m == nil {
		*m = make(map[K]UID)
	}
	(*m)[k] = uid
}

// each calls fn with every entry of the index.
func (x *uniqueIndex) each(fn func(indexKey, UID)) {
	for n, uid := range x.ints {
		fn(indexKey{kind: intKey, n: n}, uid)
	}
	for s, uid := range x.strs {
		fn(indexKey{kind: strKey, s: s}, uid)
	}
	for s, uid := range x.other {
		fn(indexKey{kind: otherKey, s: s}, uid)
	}
}

// index returns key's index, made on first use.
func (st *Store) index(key uniqueKey) *uniqueIndex {
	x := st.unique[key]
	if x == nil {
		x = new(uniqueIndex)
		st.unique[key] = x
	}
	return x
}

// claimUnique verifies no other live element holds the unique field
// values in rec; self may already hold them (updates).
func (st *Store) claimUnique(c *schema.Class, rec schema.Record, self UID) error {
	var err error
	eachUnique(c, rec, func(key uniqueKey, k indexKey) {
		if held, exists := st.unique[key].get(k); err == nil && exists && held != self {
			err = fmt.Errorf("graph: duplicate value %s for unique field %s.%s (held by uid %d)",
				k.String()[1:], key.class, key.field, held)
		}
	})
	return err
}

func (st *Store) recordUnique(c *schema.Class, rec schema.Record, uid UID) {
	eachUnique(c, rec, func(key uniqueKey, k indexKey) {
		st.setUnique(st.index(key), k, uid)
	})
}

// moveUnique re-indexes uid's unique values from rec to next (nil for a
// delete) at transaction time t: a value next keeps stays indexed, one it
// gives up is released and the release noted, and one it gains is taken.
func (st *Store) moveUnique(c *schema.Class, rec, next schema.Record, uid UID, t int64) {
	eachUniqueChange(c, rec, next, func(key uniqueKey, was, now indexKey) {
		if was.kind != noKey {
			x := st.unique[key]
			if held, _ := x.get(was); held == uid {
				st.setUnique(x, was, 0)
			}
			st.noteRelease(key, was, t)
		}
		if now.kind != noKey {
			st.setUnique(st.index(key), now, uid)
		}
	})
}

// noteReleases notes every release of a unique value obj's history holds,
// as the live write path noted them (moveUnique): where a version gives a
// value up to the next, and where the element ends.
func (st *Store) noteReleases(obj *Elem) {
	for i, v := range obj.Versions {
		var next schema.Record
		t := obj.End
		if i+1 < len(obj.Versions) {
			next, t = obj.Versions[i+1].Rec, obj.Versions[i+1].Start
		} else if t == temporal.Forever {
			return
		}
		eachUniqueChange(obj.Class, v.Rec, next, func(key uniqueKey, was, _ indexKey) {
			if was.kind != noKey {
				st.noteRelease(key, was, t)
			}
		})
	}
}

func (st *Store) noteRelease(key uniqueKey, k indexKey, t int64) {
	h := releaseHash(key, k)
	if last, ok := st.released[h]; !ok || t > last {
		st.released[h] = t
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// releaseHash is the FNV-1a hash of a unique field's declaring class,
// its name and an index key: its kind, then its integer's eight bytes or
// its string. Each string is closed by a byte no name holds.
func releaseHash(key uniqueKey, k indexKey) uint64 {
	h := fnv(fnv(fnvOffset, key.class), key.field)
	h = (h ^ uint64(k.kind)) * fnvPrime
	if k.kind == intKey {
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint64(byte(k.n>>i))) * fnvPrime
		}
		return h
	}
	return fnv(h, k.s)
}

func fnv(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

// eachUniqueChange calls fn for every unique field whose value differs
// between rec and next (nil: holds nothing), with the index keys it had
// and has (noKey for none).
func eachUniqueChange(c *schema.Class, rec, next schema.Record, fn func(key uniqueKey, was, now indexKey)) {
	for cur := c; cur != nil; cur = cur.Parent {
		base := len(cur.Fields()) - len(cur.OwnFields)
		for i, f := range cur.OwnFields {
			if !f.Unique {
				continue
			}
			was, now := keyOf(rec[base+i]), indexKey{}
			if next != nil {
				now = keyOf(next[base+i])
			}
			if was != now {
				fn(uniqueKey{class: cur.Name, field: f.Name}, was, now)
			}
		}
	}
}

// eachUnique calls fn with the index and the index key of every unique
// field rec holds. A class's own fields take the last len(OwnFields)
// slots of its field list, so each declaring class's slots are found
// without a name lookup.
func eachUnique(c *schema.Class, rec schema.Record, fn func(uniqueKey, indexKey)) {
	for cur := c; cur != nil; cur = cur.Parent {
		base := len(cur.Fields()) - len(cur.OwnFields)
		for i, f := range cur.OwnFields {
			if !f.Unique {
				continue
			}
			if v := rec[base+i]; v != nil {
				fn(uniqueKey{class: cur.Name, field: f.Name}, keyOf(v))
			}
		}
	}
}

// LookupUnique resolves a unique field value to its live owner. The class
// must be the one declaring the unique field (e.g. Node for id).
func (st *Store) LookupUnique(class, field string, value any) (UID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.unique[uniqueKey{class: class, field: field}].get(keyOf(value))
}

// LookupUniqueSince is LookupUnique for a reader that looks at no instant
// before from. exact reports whether the live index answers for all of
// them: whether no element has given value up after from. When it is
// false, an element the index has forgotten may have held value at an
// instant the reader sees.
func (st *Store) LookupUniqueSince(class, field string, value any, from int64) (uid UID, found, exact bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	key, k := uniqueKey{class: class, field: field}, keyOf(value)
	uid, found = st.unique[key].get(k)
	last, released := st.released[releaseHash(key, k)]
	return uid, found, !released || last <= from
}
