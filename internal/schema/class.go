package schema

import (
	"fmt"
	"strings"
)

// Kind distinguishes the two roots of the class hierarchy.
type Kind int

const (
	NodeKind Kind = iota
	EdgeKind
)

func (k Kind) String() string {
	if k == EdgeKind {
		return "Edge"
	}
	return "Node"
}

// Root class names. Every class is a transitive subclass of exactly one.
const (
	NodeRoot = "Node"
	EdgeRoot = "Edge"
)

// Class is one entry in the node or edge hierarchy. The subclass of a
// parent has all of the parent's fields plus its own.
type Class struct {
	Name   string
	Kind   Kind
	Parent *Class
	// OwnFields are the fields this class adds beyond its parent's.
	OwnFields []Field
	// Abstract classes structure the hierarchy (e.g. Vertical) but records
	// are never stored with an abstract class directly.
	Abstract bool
	// CardinalityHint is the schema-supplied estimate of how many records
	// of this class (including subclasses) exist, used by the anchor cost
	// model when live statistics are unavailable. Zero means unknown.
	CardinalityHint int

	children []*Class
	depth    int
	// path, subtree, fields, slots and byName are cached on Finalize;
	// before that they are computed on demand. slots maps a field name to
	// its index in fields, which is also its slot in the class's records;
	// byName lists the slots in ascending field-name order.
	path    string
	subtree []string
	fields  []Field
	slots   map[string]int
	byName  []int
}

// IsNode reports whether the class descends from Node.
func (c *Class) IsNode() bool { return c.Kind == NodeKind }

// IsEdge reports whether the class descends from Edge.
func (c *Class) IsEdge() bool { return c.Kind == EdgeKind }

// IsRoot reports whether the class is Node or Edge itself.
func (c *Class) IsRoot() bool { return c.Parent == nil }

// Path returns the inheritance path from the root, e.g. "Node:Container:VM".
// The Gremlin backend uses this as the element label so that subclass
// matching becomes prefix matching.
func (c *Class) Path() string {
	if c.path != "" {
		return c.path
	}
	if c.Parent == nil {
		return c.Name
	}
	return c.Parent.Path() + ":" + c.Name
}

// IsSubclassOf reports whether c is other or a transitive subclass of it.
// Identity is by class name and kind, not pointer, so schemas loaded
// independently by different stores (Nepal's data-integration mode) agree
// on the hierarchy as long as they use the same class names.
func (c *Class) IsSubclassOf(other *Class) bool {
	if other == nil || c.Kind != other.Kind {
		return false
	}
	for cur := c; cur != nil; cur = cur.Parent {
		if cur == other || cur.Name == other.Name {
			return true
		}
	}
	return false
}

// Children returns the direct subclasses in declaration order.
func (c *Class) Children() []*Class { return c.children }

// SubtreeNames returns the names of c and all transitive subclasses. The
// result is cached after Finalize and must not be modified.
func (c *Class) SubtreeNames() []string {
	if c.subtree != nil {
		return c.subtree
	}
	names := []string{c.Name}
	for _, ch := range c.children {
		names = append(names, ch.SubtreeNames()...)
	}
	return names
}

// Field resolves a field by name, searching own fields then ancestors.
func (c *Class) Field(name string) (*Field, bool) {
	if c.slots != nil {
		i, ok := c.slots[name]
		if !ok {
			return nil, false
		}
		return &c.fields[i], true
	}
	for cur := c; cur != nil; cur = cur.Parent {
		for i := range cur.OwnFields {
			if cur.OwnFields[i].Name == name {
				return &cur.OwnFields[i], true
			}
		}
	}
	return nil, false
}

// Fields returns all fields visible on the class: inherited first (root
// downward), then own, in declaration order. The result is cached after
// Finalize and must not be modified.
func (c *Class) Fields() []Field {
	if c.slots != nil {
		return c.fields
	}
	var chain []*Class
	for cur := c; cur != nil; cur = cur.Parent {
		chain = append(chain, cur)
	}
	var out []Field
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, chain[i].OwnFields...)
	}
	return out
}

// String renders the class as its short name.
func (c *Class) String() string { return c.Name }

// LCA returns the least common ancestor of two classes. Classes of
// different kinds have no common ancestor.
func LCA(a, b *Class) (*Class, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("schema: LCA of nil class")
	}
	if a.Kind != b.Kind {
		return nil, fmt.Errorf("schema: no common ancestor of %s (%s) and %s (%s)", a, a.Kind, b, b.Kind)
	}
	for a.depth > b.depth {
		a = a.Parent
	}
	for b.depth > a.depth {
		b = b.Parent
	}
	for a != b {
		a, b = a.Parent, b.Parent
	}
	return a, nil
}

// LCAAll folds LCA over a non-empty class list.
func LCAAll(classes []*Class) (*Class, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("schema: LCA of empty class list")
	}
	cur := classes[0]
	for _, c := range classes[1:] {
		var err error
		cur, err = LCA(cur, c)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// ShortName returns the final segment of a possibly path-qualified class
// name: "Vertical:HostedOn:OnVM" -> "OnVM".
func ShortName(name string) string {
	if i := strings.LastIndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}
