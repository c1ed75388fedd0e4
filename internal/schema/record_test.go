package schema

import (
	"strings"
	"testing"
	"unsafe"
)

// TestNewRecordReusesUnchangedValues: a record laid out after a previous
// one keeps the previous one's value for every slot whose new value is
// the same primitive of the same dynamic type — a re-sent string is not
// retained twice — and takes the new value for everything else, the
// dynamic type included.
func TestNewRecordReusesUnchangedValues(t *testing.T) {
	s := New()
	c, err := s.DefineNode("Host", "",
		Field{Name: "status", Type: TypeString},
		Field{Name: "rack", Type: TypeString},
		Field{Name: "load", Type: TypeFloat},
		Field{Name: "tags", Type: Container{Kind: ListContainer, Elem: TypeString}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	fresh := func(v string) string { return strings.Clone(v) }
	slot := func(name string) int { i, _ := c.Slot(name); return i }
	tags := []any{"a"}
	prev := c.NewRecord(map[string]any{"id": int64(7), "status": fresh("Green"), "rack": fresh("r1"), "load": 1, "tags": tags}, nil)
	next := c.NewRecord(map[string]any{"id": int64(7), "status": fresh("Green"), "rack": fresh("r2"), "load": 1.0, "tags": []any{"a"}}, prev)

	data := func(r Record, name string) *byte { return unsafe.StringData(r[slot(name)].(string)) }
	if data(next, "status") != data(prev, "status") {
		t.Error("an unchanged string was not taken from the previous record")
	}
	if next[slot("rack")] != "r2" || data(next, "rack") == data(prev, "rack") {
		t.Error("a changed string was not taken from the new map")
	}
	if _, ok := next[slot("load")].(float64); !ok {
		t.Errorf("load 1.0 after 1 kept the old dynamic type %T", next[slot("load")])
	}
	if next[slot("id")] != int64(7) {
		t.Errorf("id = %v", next[slot("id")])
	}
	if got := next[slot("tags")].([]any); &got[0] == &tags[0] {
		t.Error("a container was taken from the previous record")
	}
	if _, ok := c.Map(next)["name"]; ok {
		t.Error("an absent field came back from the record")
	}
}
