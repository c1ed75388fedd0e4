// Package codec is the binary encoding of Nepal's durable state: the
// payload of every WAL record, every checkpoint object, and so every byte
// of the replication feed and the /v1/wal/snapshot download. It encodes
// the primitives those layouts are built from — varints, length-prefixed
// strings and field maps — and decodes them without a schema.
//
// A field map is a count followed by its entries in ascending name order,
// each a length-prefixed name and a tagged value:
//
//	tagString  uvarint length, bytes
//	tagInt     zigzag varint (every Go integer kind decodes as int64)
//	tagFloat   8 bytes, little-endian IEEE 754 bits (float32 widens)
//	tagBool    one byte, 0 or 1
//	tagList    uvarint count, that many tagged values ([]any)
//	tagMap     a field map (map[string]any)
//
// The encoding is canonical: one value has exactly one encoding, and the
// Reader rejects every other byte string — a non-minimal varint, names out
// of order or repeated, a bool byte other than 0 or 1, nesting deeper than
// MaxDepth — so re-encoding anything it accepts reproduces the input byte
// for byte. Byte-identical replicas and the chained prefix hash over
// record checksums rely on that.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Value tags.
const (
	tagString byte = iota + 1
	tagInt
	tagFloat
	tagBool
	tagList
	tagMap
)

// MaxDepth bounds how deeply lists and maps nest inside a field map, so a
// crafted input cannot drive the decoder's recursion without bound.
const MaxDepth = 32

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFields appends the field map f. A field map of up to 16 entries
// (per nesting level) encodes without allocating when dst has room.
func AppendFields(dst []byte, f map[string]any) ([]byte, error) {
	return appendMap(dst, f, 0)
}

// AppendValue appends one top-level value of a field map. A caller that
// holds a map's entries in another layout writes the map's exact bytes
// as AppendFields would: the entry count as a uvarint, then per entry in
// ascending name order AppendString of the name and AppendValue.
func AppendValue(dst []byte, v any) ([]byte, error) {
	return appendValue(dst, v, 0)
}

func appendMap(dst []byte, m map[string]any, depth int) ([]byte, error) {
	var small [16]string
	names := small[:0]
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, k := range names {
		dst = AppendString(dst, k)
		var err error
		if dst, err = appendValue(dst, m[k], depth); err != nil {
			return dst, fmt.Errorf("%q: %w", k, err)
		}
	}
	return dst, nil
}

func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case string:
		return AppendString(append(dst, tagString), x), nil
	case int:
		return appendInt(dst, int64(x)), nil
	case int8:
		return appendInt(dst, int64(x)), nil
	case int16:
		return appendInt(dst, int64(x)), nil
	case int32:
		return appendInt(dst, int64(x)), nil
	case int64:
		return appendInt(dst, x), nil
	case uint8:
		return appendInt(dst, int64(x)), nil
	case uint16:
		return appendInt(dst, int64(x)), nil
	case uint32:
		return appendInt(dst, int64(x)), nil
	case uint:
		return appendUint(dst, uint64(x))
	case uint64:
		return appendUint(dst, x)
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(x)), nil
	case float32:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(float64(x))), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, tagBool, b), nil
	case []any:
		if depth >= MaxDepth {
			return dst, errTooDeep
		}
		dst = binary.AppendUvarint(append(dst, tagList), uint64(len(x)))
		for i, item := range x {
			var err error
			if dst, err = appendValue(dst, item, depth+1); err != nil {
				return dst, fmt.Errorf("element %d: %w", i, err)
			}
		}
		return dst, nil
	case map[string]any:
		if depth >= MaxDepth {
			return dst, errTooDeep
		}
		return appendMap(append(dst, tagMap), x, depth+1)
	}
	return dst, fmt.Errorf("codec: unsupported value type %T", v)
}

func appendInt(dst []byte, n int64) []byte {
	return binary.AppendVarint(append(dst, tagInt), n)
}

func appendUint(dst []byte, n uint64) ([]byte, error) {
	if n > math.MaxInt64 {
		return dst, fmt.Errorf("codec: unsigned value %d overflows int64", n)
	}
	return appendInt(dst, int64(n)), nil
}

var errTooDeep = fmt.Errorf("codec: values nest deeper than %d levels", MaxDepth)

// ErrMalformed is wrapped by every Reader error: the bytes are not a
// canonical encoding, or they end early.
var ErrMalformed = errors.New("codec: malformed encoding")

// Reader decodes a byte slice front to back. Errors are sticky: after the
// first one every method returns a zero value, and Err reports it.
type Reader struct {
	b     []byte
	off   int
	err   error
	names map[string]string
}

// Reset points r at b, keeping its name table. The zero Reader reads an
// empty input.
func (r *Reader) Reset(b []byte) { r.b, r.off, r.err = b, 0, nil }

// InternNames makes r share one string per distinct field-map name and
// per Name call across everything it decodes — a checkpoint repeats the
// same few class and field names once per object. Calling it again keeps
// the names already interned.
func (r *Reader) InternNames() {
	if r.names == nil {
		r.names = map[string]string{}
	}
}

// Err returns the first decoding error, wrapping ErrMalformed.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Fail records the formatted error, wrapping ErrMalformed, unless one is
// already recorded: a caller's own check on decoded values fails the
// reader the same way a malformed byte does.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d", ErrMalformed, fmt.Sprintf(format, args...), r.off)
	}
}

// Done fails r unless every byte has been read.
func (r *Reader) Done() {
	if r.err == nil && r.Len() != 0 {
		r.Fail("%d trailing bytes", r.Len())
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Len() < 1 {
		r.Fail("unexpected end")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// Uvarint reads a minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	r.varint(n)
	return v
}

// Varint reads a minimally encoded zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	r.varint(n)
	return v
}

// varint advances past an n-byte varint, failing r when binary's decoder
// did (n ≤ 0) or the encoding is not minimal: a minimal varint of more
// than one byte never ends in a zero byte.
func (r *Reader) varint(n int) {
	switch {
	case n == 0:
		r.Fail("unexpected end")
	case n < 0:
		r.Fail("varint overflows 64 bits")
	case n > 1 && r.b[r.off+n-1] == 0:
		r.Fail("non-minimal varint")
	default:
		r.off += n
	}
}

// bytes reads a uvarint length and that many bytes, aliasing r's input.
func (r *Reader) bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.Fail("length %d exceeds the %d bytes left", n, r.Len())
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.bytes()) }

// Name reads a string written by AppendString, interned when InternNames
// is on.
func (r *Reader) Name() string { return r.intern(r.bytes()) }

func (r *Reader) intern(b []byte) string {
	if r.names == nil {
		return string(b)
	}
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(r.names) < maxInterned {
		r.names[s] = s
	}
	return s
}

// maxInterned bounds the name table, so a crafted input naming millions
// of distinct fields cannot grow it without bound.
const maxInterned = 4096

// Fields reads a field map written by AppendFields. An empty map decodes
// as nil.
func (r *Reader) Fields() map[string]any {
	if m := r.fieldMap(0); len(m) > 0 {
		return m
	}
	return nil
}

// FieldsInto reads a field map written by AppendFields into m, which
// must be empty, so a caller that lays each map out elsewhere decodes
// every one into the same map. Only m is reused: nested lists and maps
// are fresh, and the values may be kept. With InternNames on, no name
// costs an allocation once seen. On error m holds a prefix of the
// entries.
func (r *Reader) FieldsInto(m map[string]any) { r.entries(m, r.mapLen(), 0) }

// fieldMap reads a field map nested depth levels deep into a fresh map.
func (r *Reader) fieldMap(depth int) map[string]any {
	n := r.mapLen()
	if r.err != nil {
		return nil
	}
	m := make(map[string]any, n)
	r.entries(m, n, depth)
	if r.err != nil {
		return nil
	}
	return m
}

// mapLen reads a field map's entry count. Every entry takes at least
// three bytes (a name length, a tag and a payload byte), which bounds
// the count before anything is allocated for it.
func (r *Reader) mapLen() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()/3) {
		r.Fail("map count %d exceeds the %d bytes left", n, r.Len())
		return 0
	}
	return int(n)
}

// entries reads n name/value pairs in strictly ascending name order
// into m.
func (r *Reader) entries(m map[string]any, n, depth int) {
	var prev []byte
	for i := 0; i < n && r.err == nil; i++ {
		name := r.bytes()
		if i > 0 && string(name) <= string(prev) {
			r.Fail("map names out of order or repeated")
			return
		}
		prev = name
		v := r.value(depth)
		m[r.intern(name)] = v
	}
}

func (r *Reader) value(depth int) any {
	switch tag := r.Byte(); tag {
	case tagString:
		return r.Str()
	case tagInt:
		return r.Varint()
	case tagFloat:
		if r.Len() < 8 {
			r.Fail("unexpected end")
			return nil
		}
		r.off += 8
		return math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off-8:]))
	case tagBool:
		switch r.Byte() {
		case 0:
			return false
		case 1:
			return true
		}
		r.Fail("bool byte out of range")
	case tagList:
		if depth >= MaxDepth {
			r.Fail("values nest deeper than %d levels", MaxDepth)
			return nil
		}
		n := r.Uvarint()
		if n > uint64(r.Len()/2) { // every value takes at least two bytes
			r.Fail("list count %d exceeds the %d bytes left", n, r.Len())
			return nil
		}
		items := make([]any, n)
		for i := range items {
			items[i] = r.value(depth + 1)
		}
		return items
	case tagMap:
		if depth >= MaxDepth {
			r.Fail("values nest deeper than %d levels", MaxDepth)
			return nil
		}
		return r.fieldMap(depth + 1)
	default:
		if r.err == nil {
			r.Fail("unknown value tag %d", tag)
		}
	}
	return nil
}
