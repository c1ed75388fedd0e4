package schema

import "fmt"

// EdgeRule states that an edge of class Edge (or a subclass) may connect a
// source node of class From (or a subclass) to a target node of class To
// (or a subclass). This is the Nepal rendering of TOSCA capability types:
// the graph schema in Fig. 3 of the paper is a set of such rules.
type EdgeRule struct {
	Edge string
	From string
	To   string
}

// Schema is a complete Nepal schema: node and edge class hierarchies,
// named data types, and allowed-edge rules. Build one with the Define*
// methods (or load JSON via Load) and call Finalize before use.
type Schema struct {
	classes   map[string]*Class
	dataTypes map[string]*DataType
	rules     []EdgeRule
	finalized bool
}

// New returns a schema containing only the Node and Edge roots. Both roots
// carry the base fields every Nepal database entry has: a unique id and a
// display name.
func New() *Schema {
	s := &Schema{
		classes:   make(map[string]*Class),
		dataTypes: make(map[string]*DataType),
	}
	base := []Field{
		{Name: "id", Type: TypeInt, Required: true, Unique: true},
		{Name: "name", Type: TypeString},
	}
	s.classes[NodeRoot] = &Class{Name: NodeRoot, Kind: NodeKind, OwnFields: base}
	s.classes[EdgeRoot] = &Class{Name: EdgeRoot, Kind: EdgeKind, OwnFields: base}
	return s
}

// Class looks up a class by short name.
func (s *Schema) Class(name string) (*Class, bool) {
	c, ok := s.classes[name]
	return c, ok
}

// MustClass looks up a class and panics when absent; for use with
// programmatically built schemas whose classes are known to exist.
func (s *Schema) MustClass(name string) *Class {
	c, ok := s.classes[name]
	if !ok {
		panic(fmt.Sprintf("schema: unknown class %q", name))
	}
	return c
}

// Classes returns all classes sorted by name.
func (s *Schema) Classes() []*Class {
	out := make([]*Class, 0, len(s.classes))
	for _, name := range sortedKeys(s.classes) {
		out = append(out, s.classes[name])
	}
	return out
}

// NodeClasses returns all node classes (including the Node root), sorted.
func (s *Schema) NodeClasses() []*Class { return s.kindClasses(NodeKind) }

// EdgeClasses returns all edge classes (including the Edge root), sorted.
func (s *Schema) EdgeClasses() []*Class { return s.kindClasses(EdgeKind) }

func (s *Schema) kindClasses(k Kind) []*Class {
	var out []*Class
	for _, c := range s.Classes() {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// DataType looks up a named composite data type.
func (s *Schema) DataType(name string) (*DataType, bool) {
	d, ok := s.dataTypes[name]
	return d, ok
}

// DataTypes exposes the data type registry (for ParseType during loading).
func (s *Schema) DataTypes() map[string]*DataType { return s.dataTypes }

// Rules returns the allowed-edge rules in declaration order.
func (s *Schema) Rules() []EdgeRule { return s.rules }

// DefineDataType registers a composite data type. Cycle checking is
// deferred to Finalize because data types may reference each other while
// the schema is being assembled.
func (s *Schema) DefineDataType(name string, fields ...Field) (*DataType, error) {
	if s.finalized {
		return nil, fmt.Errorf("schema: DefineDataType %q after Finalize", name)
	}
	if _, dup := s.dataTypes[name]; dup {
		return nil, fmt.Errorf("schema: duplicate data type %q", name)
	}
	if err := checkFieldNames(name, fields); err != nil {
		return nil, err
	}
	dt := &DataType{Name: name, Fields: fields}
	s.dataTypes[name] = dt
	return dt, nil
}

// DefineNode adds a node class under the named parent ("" or "Node" for a
// direct child of the root).
func (s *Schema) DefineNode(name, parent string, fields ...Field) (*Class, error) {
	return s.define(NodeKind, name, parent, fields)
}

// DefineEdge adds an edge class under the named parent ("" or "Edge" for a
// direct child of the root).
func (s *Schema) DefineEdge(name, parent string, fields ...Field) (*Class, error) {
	return s.define(EdgeKind, name, parent, fields)
}

func (s *Schema) define(kind Kind, name, parent string, fields []Field) (*Class, error) {
	if s.finalized {
		return nil, fmt.Errorf("schema: define %q after Finalize", name)
	}
	if name == "" {
		return nil, fmt.Errorf("schema: empty class name")
	}
	if _, dup := s.classes[name]; dup {
		return nil, fmt.Errorf("schema: duplicate class %q", name)
	}
	if parent == "" {
		if kind == NodeKind {
			parent = NodeRoot
		} else {
			parent = EdgeRoot
		}
	}
	p, ok := s.classes[parent]
	if !ok {
		return nil, fmt.Errorf("schema: class %q has unknown parent %q", name, parent)
	}
	if p.Kind != kind {
		return nil, fmt.Errorf("schema: %s class %q cannot extend %s class %q", kind, name, p.Kind, parent)
	}
	if err := checkFieldNames(name, fields); err != nil {
		return nil, err
	}
	// A subclass adds fields; it must not redeclare an inherited one.
	for _, f := range fields {
		if _, shadow := p.Field(f.Name); shadow {
			return nil, fmt.Errorf("schema: class %q redeclares inherited field %q", name, f.Name)
		}
	}
	c := &Class{Name: name, Kind: kind, Parent: p, OwnFields: fields, depth: p.depth + 1}
	p.children = append(p.children, c)
	s.classes[name] = c
	return c, nil
}

// SetAbstract marks a class abstract.
func (s *Schema) SetAbstract(name string) error {
	c, ok := s.classes[name]
	if !ok {
		return fmt.Errorf("schema: unknown class %q", name)
	}
	c.Abstract = true
	return nil
}

// AllowEdge registers an allowed-edge rule. All three classes must exist by
// Finalize time; registration order is free.
func (s *Schema) AllowEdge(edge, from, to string) {
	s.rules = append(s.rules, EdgeRule{Edge: edge, From: from, To: to})
}

// Finalize validates the assembled schema (rule classes exist and have the
// right kinds, data-type composition is acyclic) and freezes it. A schema
// must be finalized before records are validated against it.
func (s *Schema) Finalize() error {
	if s.finalized {
		return nil
	}
	for _, r := range s.rules {
		e, ok := s.classes[r.Edge]
		if !ok || !e.IsEdge() {
			return fmt.Errorf("schema: edge rule names unknown or non-edge class %q", r.Edge)
		}
		for _, n := range []string{r.From, r.To} {
			c, ok := s.classes[n]
			if !ok || !c.IsNode() {
				return fmt.Errorf("schema: edge rule for %q names unknown or non-node class %q", r.Edge, n)
			}
		}
	}
	if err := s.checkDataTypeDAG(); err != nil {
		return err
	}
	// Build per-class caches: field lists (read by every ValidateRecord)
	// with their record slots, inheritance paths, and subtree name lists
	// (hot in the backends' class-partition probes).
	for _, c := range s.classes {
		c.fields = c.Fields() // before slots, which marks the caches built
		c.byName = c.NameOrder()
		c.slots = make(map[string]int, len(c.fields))
		for i, f := range c.fields {
			c.slots[f.Name] = i
		}
	}
	for _, c := range s.classes {
		c.path = c.Path()
	}
	for _, c := range s.classes {
		c.subtree = c.SubtreeNames()
	}
	s.finalized = true
	return nil
}

// checkDataTypeDAG verifies the data-type composition graph is acyclic.
func (s *Schema) checkDataTypeDAG() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(s.dataTypes))
	var visit func(d *DataType) error
	visit = func(d *DataType) error {
		switch color[d.Name] {
		case gray:
			return fmt.Errorf("schema: data type cycle through %q", d.Name)
		case black:
			return nil
		}
		color[d.Name] = gray
		for _, f := range d.Fields {
			for _, ref := range referencedDataTypes(f.Type) {
				if err := visit(ref); err != nil {
					return err
				}
			}
		}
		color[d.Name] = black
		return nil
	}
	for _, name := range sortedKeys(s.dataTypes) {
		if err := visit(s.dataTypes[name]); err != nil {
			return err
		}
	}
	return nil
}

func referencedDataTypes(t Type) []*DataType {
	switch tt := t.(type) {
	case *DataType:
		return []*DataType{tt}
	case Container:
		return referencedDataTypes(tt.Elem)
	}
	return nil
}

// EdgeAllowed reports whether an edge of class edge may connect a source
// node of class from to a target node of class to, honoring inheritance on
// all three positions. With no rules registered for any ancestor of edge,
// the edge class is unconstrained (legacy topologies are loaded this way).
func (s *Schema) EdgeAllowed(edge, from, to *Class) bool {
	constrained := false
	for _, r := range s.rules {
		re := s.classes[r.Edge]
		if !edge.IsSubclassOf(re) {
			continue
		}
		constrained = true
		rf, rt := s.classes[r.From], s.classes[r.To]
		if from.IsSubclassOf(rf) && to.IsSubclassOf(rt) {
			return true
		}
	}
	return !constrained
}

// ValidateRecord checks rec against the named class: the class must exist,
// must not be abstract, required fields must be present, all fields must be
// declared and well-typed. This is the strong typing that, per the paper,
// "prevented us from loading garbage data into the graphs".
func (s *Schema) ValidateRecord(class string, rec map[string]any) error {
	c, ok := s.classes[class]
	if !ok {
		return fmt.Errorf("schema: unknown class %q", class)
	}
	if c.Abstract {
		return fmt.Errorf("schema: class %q is abstract; records must use a concrete subclass", class)
	}
	for _, f := range c.Fields() {
		v, present := rec[f.Name]
		if !present {
			if f.Required {
				return fmt.Errorf("schema: %s record missing required field %q", class, f.Name)
			}
			continue
		}
		if err := f.Type.Validate(v); err != nil {
			return fmt.Errorf("%s.%s: %w", class, f.Name, err)
		}
	}
	for k := range rec {
		if _, declared := c.Field(k); !declared {
			return fmt.Errorf("schema: class %q has no field %q", class, k)
		}
	}
	return nil
}

// FieldOn resolves a field by name on the named class, for atom predicate
// type-checking: referencing a subclass-only field through a parent atom is
// a compile-time error in Nepal.
func (s *Schema) FieldOn(class, field string) (*Field, error) {
	c, ok := s.classes[class]
	if !ok {
		return nil, fmt.Errorf("schema: unknown class %q", class)
	}
	f, ok := c.Field(field)
	if !ok {
		return nil, fmt.Errorf("schema: class %q has no field %q (fields of subclasses are not visible through a %s atom)", class, field, class)
	}
	return f, nil
}

// ResolveFieldPath resolves a dotted field path on the named class —
// Nepal's query access to structured data. Each segment after the first
// steps into the current type: containers are traversed into their
// element type (list/set semantics: any element; map: the segment names a
// key), and composite data types resolve the segment as one of their
// fields. The leaf type is returned for predicate type-checking.
func (s *Schema) ResolveFieldPath(class, path string) (Type, error) {
	segs := splitPath(path)
	f, err := s.FieldOn(class, segs[0])
	if err != nil {
		return nil, err
	}
	cur := f.Type
	for _, seg := range segs[1:] {
		// Unwrap container nesting before resolving the segment; a map
		// consumes the segment as its key.
		keyConsumed := false
		for {
			c, ok := cur.(Container)
			if !ok {
				break
			}
			cur = c.Elem
			if c.Kind == MapContainer {
				keyConsumed = true
				break
			}
		}
		if keyConsumed {
			continue
		}
		t, ok := cur.(*DataType)
		if !ok {
			return nil, fmt.Errorf("schema: cannot descend into %s with %q (in path %s.%s)", cur, seg, class, path)
		}
		df := t.field(seg)
		if df == nil {
			return nil, fmt.Errorf("schema: data type %q has no field %q (in path %s.%s)", t.Name, seg, class, path)
		}
		cur = df.Type
	}
	return cur, nil
}

func splitPath(path string) []string {
	var segs []string
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '.' {
			segs = append(segs, path[start:i])
			start = i + 1
		}
	}
	return segs
}

// checkFieldNames rejects duplicate or empty field names.
func checkFieldNames(owner string, fields []Field) error {
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return fmt.Errorf("schema: %q declares a field with empty name", owner)
		}
		if seen[f.Name] {
			return fmt.Errorf("schema: %q declares field %q twice", owner, f.Name)
		}
		if f.Type == nil {
			return fmt.Errorf("schema: %q field %q has nil type", owner, f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// Stats carries live per-class record counts from a store to the planner.
// Missing entries fall back to schema CardinalityHints.
type Stats struct {
	// ClassCount maps class name to the number of records whose concrete
	// class is exactly that name (not including subclasses).
	ClassCount map[string]int
}

// SubtreeCount returns the number of records of c or any subclass.
func (st *Stats) SubtreeCount(c *Class) int {
	if st == nil || st.ClassCount == nil {
		return 0
	}
	total := 0
	for _, name := range c.SubtreeNames() {
		total += st.ClassCount[name]
	}
	return total
}

// SortedNames returns map keys in sorted order; sibling packages use it for
// deterministic iteration in code generation and reports.
func SortedNames[M ~map[string]V, V any](m M) []string { return sortedKeys(m) }
