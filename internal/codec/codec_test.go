package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

func str(s string) []byte { return AppendString(nil, s) }

func newReader(b []byte) *Reader {
	var r Reader
	r.Reset(b)
	return &r
}

func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// TestFieldsRoundTrip: every value kind, nested, decodes to its input,
// with integers of every width as int64 and float32 widened, and
// re-encodes to the same bytes.
func TestFieldsRoundTrip(t *testing.T) {
	in := map[string]any{
		"s": "héllo\x00", "i": -7, "i8": int8(-8), "u16": uint16(65535), "i64": int64(math.MinInt64),
		"u64": uint64(math.MaxInt64), "f": 2.5, "f32": float32(0.1), "nan": math.Inf(-1), "t": true, "b": false,
		"l": []any{1, "x", []any{}, map[string]any{"k": []any{false}}},
		"m": map[string]any{"z": 1.0, "a": map[string]any{}},
	}
	want := map[string]any{
		"s": "héllo\x00", "i": int64(-7), "i8": int64(-8), "u16": int64(65535), "i64": int64(math.MinInt64),
		"u64": int64(math.MaxInt64), "f": 2.5, "f32": float64(float32(0.1)), "nan": math.Inf(-1), "t": true, "b": false,
		"l": []any{int64(1), "x", []any{}, map[string]any{"k": []any{false}}},
		"m": map[string]any{"z": 1.0, "a": map[string]any{}},
	}
	b, err := AppendFields(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	r := newReader(b)
	got := r.Fields()
	r.Done()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%#v\nwant\n%#v", got, want)
	}
	if again, _ := AppendFields(nil, got); !bytes.Equal(again, b) {
		t.Fatal("re-encoding the decoded map changed its bytes")
	}

	// An empty map decodes as nil at the top level.
	b, _ = AppendFields(nil, map[string]any{})
	if r := newReader(b); r.Fields() != nil || r.Err() != nil {
		t.Fatalf("empty map: %v", r.Err())
	}
}

// TestEncodeErrors: a value the codec has no tag for, an unsigned value
// past int64 and nesting past MaxDepth are errors, not silent
// approximations.
func TestEncodeErrors(t *testing.T) {
	deep := any(1)
	for i := 0; i <= MaxDepth; i++ {
		deep = []any{deep}
	}
	for name, v := range map[string]any{
		"unsupported": []string{"a"},
		"overflow":    uint64(math.MaxInt64) + 1,
		"too deep":    deep,
	} {
		if _, err := AppendFields(nil, map[string]any{"v": v}); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestReaderRejectsNonCanonical: every byte string the encoder would not
// write is malformed, so re-encoding anything the Reader accepts
// reproduces it.
func TestReaderRejectsNonCanonical(t *testing.T) {
	boolA := cat(str("a"), []byte{tagBool, 1})
	if r := newReader(cat([]byte{1}, boolA)); r.Fields() == nil || r.Err() != nil {
		t.Fatalf("well-formed map rejected: %v", r.Err())
	}
	deep := []byte{1}
	deep = append(deep, str("a")...)
	for i := 0; i <= MaxDepth; i++ {
		deep = append(deep, tagList, 1)
	}
	deep = append(deep, tagBool, 1)
	for name, b := range map[string][]byte{
		"names unsorted":     cat([]byte{2}, str("b"), []byte{tagBool, 1}, boolA),
		"name repeated":      cat([]byte{2}, boolA, boolA),
		"bool byte 2":        cat([]byte{1}, str("a"), []byte{tagBool, 2}),
		"unknown tag":        cat([]byte{1}, str("a"), []byte{99, 1}),
		"non-minimal count":  cat([]byte{0x81, 0x00}, boolA),
		"non-minimal int":    cat([]byte{1}, str("a"), []byte{tagInt, 0x80, 0x00}),
		"count past the end": cat([]byte{5}, boolA),
		"string past end":    cat([]byte{1}, str("a"), []byte{tagString, 9, 'x'}),
		"short float":        cat([]byte{1}, str("a"), []byte{tagFloat, 0, 0, 0}),
		"varint overflow":    cat([]byte{1}, str("a"), []byte{tagInt}, bytes.Repeat([]byte{0xff}, 10), []byte{1}),
		"nested too deep":    deep,
		"empty":              nil,
	} {
		r := newReader(b)
		r.Fields()
		r.Done()
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, r.Err())
		}
	}
	// Trailing bytes fail Done.
	r := newReader(cat([]byte{1}, boolA, []byte{0}))
	r.Fields()
	if r.Done(); !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("trailing byte: err = %v", r.Err())
	}
}

// TestInternNames: an interning reader hands out one string per distinct
// name.
func TestInternNames(t *testing.T) {
	b, _ := AppendFields(nil, map[string]any{"status": "a"})
	b = append(b, b...)
	r := newReader(b)
	r.InternNames()
	m1, m2 := r.Fields(), r.Fields()
	var k1, k2 string
	for k := range m1 {
		k1 = k
	}
	for k := range m2 {
		k2 = k
	}
	if k1 != "status" || k2 != "status" || r.Err() != nil || unsafe.StringData(k1) != unsafe.StringData(k2) {
		t.Fatalf("names %q and %q not shared (err %v)", k1, k2, r.Err())
	}
}
