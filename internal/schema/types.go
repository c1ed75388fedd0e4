// Package schema implements Nepal's strongly-typed, model-driven schema
// system: single-rooted class hierarchies for nodes and edges, TOSCA-style
// composite data types with list/set/map containers, allowed-edge
// (capability) constraints, and record validation.
//
// Unlike schema-free property-graph stores, every node and edge in a Nepal
// database belongs to exactly one class in a hierarchy rooted at Node or
// Edge. A subclass inherits all fields of its parent and may add more.
// Query atoms name a class and match all records of that class or any
// transitive subclass, while field references in atom predicates are
// type-checked against the named class — the paper's "strongly typed
// concepts".
package schema

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/temporal"
)

// Type is a field type: a primitive, a container over an element type, or
// a reference to a named composite data type.
type Type interface {
	// String renders the TOSCA-style name of the type ("string",
	// "list[routingTableEntry]", ...).
	String() string
	// Validate checks that v is a legal value of the type.
	Validate(v any) error
}

// Primitive field types.
type primitive string

const (
	TypeString    primitive = "string"
	TypeInt       primitive = "int"
	TypeFloat     primitive = "float"
	TypeBool      primitive = "bool"
	TypeTimestamp primitive = "timestamp"
	TypeIPAddress primitive = "ipaddress"
)

func (p primitive) String() string { return string(p) }

// Validate checks a primitive value. Numeric values accept both int64 and
// float64 representations where lossless (JSON decodes all numbers to
// float64).
func (p primitive) Validate(v any) error {
	switch p {
	case TypeString:
		if _, ok := v.(string); !ok {
			return typeErr(p, v)
		}
	case TypeInt:
		switch n := v.(type) {
		case int, int32, int64:
		case float64:
			if n != float64(int64(n)) {
				return typeErr(p, v)
			}
		default:
			return typeErr(p, v)
		}
	case TypeFloat:
		switch v.(type) {
		case float32, float64, int, int64:
		default:
			return typeErr(p, v)
		}
	case TypeBool:
		if _, ok := v.(bool); !ok {
			return typeErr(p, v)
		}
	case TypeTimestamp:
		s, ok := v.(string)
		if !ok {
			return typeErr(p, v)
		}
		if _, err := temporal.Parse(s); err != nil {
			return fmt.Errorf("schema: %w", err)
		}
	case TypeIPAddress:
		s, ok := v.(string)
		if !ok {
			return typeErr(p, v)
		}
		if !looksLikeIP(s) {
			return fmt.Errorf("schema: %q is not an IP address", s)
		}
	default:
		return fmt.Errorf("schema: unknown primitive type %q", p)
	}
	return nil
}

func typeErr(t Type, v any) error {
	return fmt.Errorf("schema: value %v (%T) is not a %s", v, v, t)
}

func looksLikeIP(s string) bool {
	dots := strings.Count(s, ".")
	colons := strings.Count(s, ":")
	return (dots == 3 && colons == 0) || colons >= 2
}

// ContainerKind distinguishes the three TOSCA container types.
type ContainerKind int

const (
	ListContainer ContainerKind = iota
	SetContainer
	MapContainer
)

func (k ContainerKind) String() string {
	switch k {
	case ListContainer:
		return "list"
	case SetContainer:
		return "set"
	case MapContainer:
		return "map"
	}
	return "container"
}

// Container is a list, set, or map of elements of a single type. Map keys
// are always strings, matching TOSCA.
type Container struct {
	Kind ContainerKind
	Elem Type
}

func (c Container) String() string {
	return fmt.Sprintf("%s[%s]", c.Kind, c.Elem)
}

// Validate checks container shape and every element.
func (c Container) Validate(v any) error {
	switch c.Kind {
	case ListContainer, SetContainer:
		items, ok := v.([]any)
		if !ok {
			return typeErr(c, v)
		}
		for i, item := range items {
			if err := c.Elem.Validate(item); err != nil {
				return fmt.Errorf("%s element %d: %w", c.Kind, i, err)
			}
		}
		if c.Kind == SetContainer {
			seen := make(map[string]bool, len(items))
			for _, item := range items {
				key := fmt.Sprintf("%v", item)
				if seen[key] {
					return fmt.Errorf("schema: duplicate element %v in set", item)
				}
				seen[key] = true
			}
		}
	case MapContainer:
		m, ok := v.(map[string]any)
		if !ok {
			return typeErr(c, v)
		}
		for k, item := range m {
			if err := c.Elem.Validate(item); err != nil {
				return fmt.Errorf("map key %q: %w", k, err)
			}
		}
	}
	return nil
}

// DataType is a named composite type from the schema's data_types section.
// Data types may nest other data types; the composition DAG must be
// acyclic, which Schema.Finalize verifies.
type DataType struct {
	Name   string
	Fields []Field
}

func (d *DataType) String() string { return d.Name }

// Validate checks that v is a struct-shaped map honoring the field types.
func (d *DataType) Validate(v any) error {
	m, ok := v.(map[string]any)
	if !ok {
		return typeErr(d, v)
	}
	for _, f := range d.Fields {
		fv, present := m[f.Name]
		if !present {
			if f.Required {
				return fmt.Errorf("schema: %s missing required field %q", d.Name, f.Name)
			}
			continue
		}
		if err := f.Type.Validate(fv); err != nil {
			return fmt.Errorf("%s.%s: %w", d.Name, f.Name, err)
		}
	}
	for k := range m {
		if d.field(k) == nil {
			return fmt.Errorf("schema: %s has no field %q", d.Name, k)
		}
	}
	return nil
}

func (d *DataType) field(name string) *Field {
	for i := range d.Fields {
		if d.Fields[i].Name == name {
			return &d.Fields[i]
		}
	}
	return nil
}

// Field describes one named, typed field of a class or data type.
type Field struct {
	Name     string
	Type     Type
	Required bool
	// Unique marks fields whose values must be unique across all records of
	// the declaring class and its subclasses (e.g. id). The store enforces
	// it; the planner treats equality predicates on unique fields as
	// cardinality-1 anchors.
	Unique bool
}

// ParseType resolves a TOSCA-style type name ("string", "list[int]",
// "map[routingTableEntry]") against the named data types in reg.
func ParseType(name string, reg map[string]*DataType) (Type, error) {
	name = strings.TrimSpace(name)
	for _, kind := range []struct {
		prefix string
		k      ContainerKind
	}{{"list[", ListContainer}, {"set[", SetContainer}, {"map[", MapContainer}} {
		if strings.HasPrefix(name, kind.prefix) && strings.HasSuffix(name, "]") {
			inner := name[len(kind.prefix) : len(name)-1]
			elem, err := ParseType(inner, reg)
			if err != nil {
				return nil, err
			}
			return Container{Kind: kind.k, Elem: elem}, nil
		}
	}
	switch primitive(name) {
	case TypeString, TypeInt, TypeFloat, TypeBool, TypeTimestamp, TypeIPAddress:
		return primitive(name), nil
	}
	if dt, ok := reg[name]; ok {
		return dt, nil
	}
	return nil, fmt.Errorf("schema: unknown type %q", name)
}

// sortedKeys returns map keys in deterministic order; schema iteration must
// be stable for code generation and tests.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
