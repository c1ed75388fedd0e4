package rpe

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
)

// The map-form predicate compiler the slot compiler replaced, kept as the
// oracle the slot form must agree with: it reads a field map by name and
// materialises every leaf a dotted path reaches before testing them.

func oraclePathValues(fields map[string]any, segs []string) []any {
	v, ok := fields[segs[0]]
	if !ok {
		return nil
	}
	cur := []any{v}
	for _, seg := range segs[1:] {
		var next []any
		var walk func(v any)
		walk = func(v any) {
			switch x := v.(type) {
			case []any:
				for _, item := range x {
					walk(item)
				}
			case map[string]any:
				if sub, ok := x[seg]; ok {
					next = append(next, sub)
				}
			}
		}
		for _, v := range cur {
			walk(v)
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	var out []any
	for _, v := range cur {
		if items, ok := v.([]any); ok {
			out = append(out, items...)
			continue
		}
		out = append(out, v)
	}
	return out
}

func oracleCompile(p FieldPred) (func(map[string]any) bool, error) {
	leaf, err := p.leafTest()
	if err != nil {
		return nil, err
	}
	if strings.ContainsRune(p.Field, '.') {
		segs := strings.Split(p.Field, ".")
		return func(f map[string]any) bool {
			for _, v := range oraclePathValues(f, segs) {
				if leaf(v) {
					return true
				}
			}
			return false
		}, nil
	}
	field := p.Field
	return func(f map[string]any) bool {
		v, ok := f[field]
		return ok && leaf(v)
	}, nil
}

// oracleSatisfies is Satisfies over a field map.
func oracleSatisfies(t *testing.T, atom *Atom, atomCls, cls *schema.Class, fields map[string]any) bool {
	t.Helper()
	if !cls.IsSubclassOf(atomCls) {
		return false
	}
	for _, p := range atom.Preds {
		test, err := oracleCompile(p)
		if err != nil {
			t.Fatalf("oracle compile %s: %v", p, err)
		}
		if !test(fields) {
			return false
		}
	}
	return true
}

// Value pools: small, so random predicates hit stored values often.
var (
	oracleStrings = []any{"Green", "Red", "gr", "ge-0/0/1", "m1.small", ""}
	oracleIPs     = []any{"10.0.0.1", "10.1.0.0", "192.168.0.1"}
	oracleTimes   = []any{"2026-01-02T03:04:05Z", "2026-02-01T00:00:00Z"}
)

// oracleInt draws a small integer as one of the dynamic types a stored
// int field can hold: int and int64 from Go writers, an integral float64
// from a JSON ingest.
func oracleInt(rng *rand.Rand) any {
	n := rng.Intn(6) - 1
	switch rng.Intn(3) {
	case 0:
		return n
	case 1:
		return int64(n)
	}
	return float64(n)
}

func oracleValue(rng *rand.Rand, typ schema.Type) any {
	switch tt := typ.(type) {
	case schema.Container:
		items := make([]any, rng.Intn(4))
		for i := range items {
			items[i] = oracleValue(rng, tt.Elem)
		}
		return items
	case *schema.DataType:
		m := map[string]any{}
		for _, f := range tt.Fields {
			if f.Required || rng.Intn(2) == 0 {
				m[f.Name] = oracleValue(rng, f.Type)
			}
		}
		return m
	}
	switch typ {
	case schema.TypeInt:
		return oracleInt(rng)
	case schema.TypeFloat:
		return rng.Float64() * 4
	case schema.TypeBool:
		return rng.Intn(2) == 0
	case schema.TypeIPAddress:
		return oracleIPs[rng.Intn(len(oracleIPs))]
	case schema.TypeTimestamp:
		return oracleTimes[rng.Intn(len(oracleTimes))]
	}
	return oracleStrings[rng.Intn(len(oracleStrings))]
}

// oracleRecord draws a field map of cls valid in sch: required fields
// always, the others at random.
func oracleRecord(t *testing.T, rng *rand.Rand, sch *schema.Schema, cls *schema.Class) map[string]any {
	m := map[string]any{}
	for _, f := range cls.Fields() {
		if f.Required || rng.Intn(3) > 0 {
			m[f.Name] = oracleValue(rng, f.Type)
		}
	}
	if err := sch.ValidateRecord(cls.Name, m); err != nil {
		t.Fatalf("generated record is invalid: %v", err)
	}
	return m
}

// elemType unwraps list and set containers down to their element type.
func elemType(typ schema.Type) schema.Type {
	for {
		c, ok := typ.(schema.Container)
		if !ok {
			return typ
		}
		typ = c.Elem
	}
}

// oraclePaths lists the predicate paths an atom of cls may test, each
// with the type its literal must have: its fields, and for a field of
// composite data type (inside containers or not) each of the data type's
// fields as a dotted path.
func oraclePaths(cls *schema.Class) (paths []string, leaves []schema.Type) {
	for _, f := range cls.Fields() {
		typ := elemType(f.Type)
		if dt, ok := typ.(*schema.DataType); ok {
			for _, sub := range dt.Fields {
				paths, leaves = append(paths, f.Name+"."+sub.Name), append(leaves, elemType(sub.Type))
			}
			continue
		}
		paths, leaves = append(paths, f.Name), append(leaves, typ)
	}
	return paths, leaves
}

// nestedSchema has what the network schema lacks: a data type field
// outside any container, a list leaf at the end of a dotted path, lists
// of lists, and a list field tested without a path.
func nestedSchema(t *testing.T) *schema.Schema {
	s := schema.New()
	list := func(elem schema.Type) schema.Type { return schema.Container{Kind: schema.ListContainer, Elem: elem} }
	meta, err := s.DefineDataType("meta",
		schema.Field{Name: "tags", Type: list(schema.TypeString)},
		schema.Field{Name: "port", Type: schema.TypeInt, Required: true},
		schema.Field{Name: "ratio", Type: schema.TypeFloat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineNode("Box", "",
		schema.Field{Name: "meta", Type: meta},
		schema.Field{Name: "history", Type: list(list(meta))},
		schema.Field{Name: "codes", Type: list(schema.TypeInt)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineNode("BigBox", "Box", schema.Field{Name: "weight", Type: schema.TypeFloat}); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func oraclePred(rng *rand.Rand, path string, leaf schema.Type) FieldPred {
	p := FieldPred{Field: path}
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIn}
	str := leaf == schema.TypeString || leaf == schema.TypeIPAddress || leaf == schema.TypeTimestamp
	if str {
		ops = append(ops, OpMatch)
	}
	switch p.Op = ops[rng.Intn(len(ops))]; p.Op {
	case OpIn:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			p.List = append(p.List, oracleLiteral(rng, leaf))
		}
	case OpMatch:
		p.Value = []string{"*", "G*", "*e*", "10.*", "*1", "Red"}[rng.Intn(6)]
	default:
		p.Value = oracleLiteral(rng, leaf)
	}
	return p
}

// oracleLiteral draws a predicate literal for a leaf type as the parser
// produces them: int64 or float64 numbers, strings, bools.
func oracleLiteral(rng *rand.Rand, leaf schema.Type) any {
	v := oracleValue(rng, leaf)
	switch n := v.(type) {
	case int:
		return int64(n)
	case float64:
		if rng.Intn(2) == 0 && n == float64(int64(n)) {
			return int64(n)
		}
	}
	return v
}

// TestSlotPredicatesMatchMapOracle holds the slot-compiled predicates to
// the map-form compiler they replaced, over random schema-valid records
// of every concrete class and random atoms on the record's class or one of
// its ancestors (a subclass element under a parent atom), with absent
// fields, int/float cross-comparison, IN, =~ and dotted paths into the
// composite data types, on the network schema and on one with nested
// lists. It also draws atoms of unrelated classes, which both forms must
// reject.
func TestSlotPredicatesMatchMapOracle(t *testing.T) {
	for _, sch := range []*schema.Schema{testSchema, nestedSchema(t)} {
		slotPredicatesMatchMapOracle(t, sch)
	}
}

func slotPredicatesMatchMapOracle(t *testing.T, sch *schema.Schema) {
	rng := rand.New(rand.NewSource(7))
	var concrete []*schema.Class
	for _, c := range sch.Classes() {
		if !c.Abstract {
			concrete = append(concrete, c)
		}
	}
	checkedAtoms, satisfied, dotted := 0, 0, 0
	for i := 0; i < 4000; i++ {
		cls := concrete[rng.Intn(len(concrete))]
		atomCls := cls
		for atomCls.Parent != nil && rng.Intn(2) == 0 {
			atomCls = atomCls.Parent
		}
		if rng.Intn(10) == 0 {
			atomCls = concrete[rng.Intn(len(concrete))]
		}
		atom := &Atom{Class: atomCls.Name}
		paths, leaves := oraclePaths(atomCls)
		for n := rng.Intn(3); n > 0 && len(paths) > 0; n-- {
			j := rng.Intn(len(paths))
			atom.Preds = append(atom.Preds, oraclePred(rng, paths[j], leaves[j]))
			if strings.Contains(paths[j], ".") {
				dotted++
			}
		}
		c, err := Check(atom, sch)
		if err != nil {
			continue // a literal the field's type rejects
		}
		checkedAtoms++
		fields := oracleRecord(t, rng, sch, cls)
		want := oracleSatisfies(t, atom, atomCls, cls, fields)
		got := c.Satisfies(c.Atoms()[0], cls, cls.NewRecord(fields, nil))
		if got != want {
			t.Fatalf("%s on a %s record %v: slot form %v, map oracle %v", atom, cls, fields, got, want)
		}
		if got {
			satisfied++
		}
	}
	t.Logf("%d atoms checked, %d satisfied, %d dotted predicates", checkedAtoms, satisfied, dotted)
	if checkedAtoms < 2000 || satisfied < checkedAtoms/10 || dotted < 100 {
		t.Fatalf("the draw is too thin: %d atoms checked, %d satisfied, %d dotted", checkedAtoms, satisfied, dotted)
	}
}

// TestRecordRoundTrip is the record layout's round-trip property: a
// record built from a random schema-valid field map of any concrete class
// maps back to the same field map, every value of the same dynamic type.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cls := range testSchema.Classes() {
		if cls.Abstract {
			continue
		}
		for i := 0; i < 50; i++ {
			fields := oracleRecord(t, rng, testSchema, cls)
			back := cls.Map(cls.NewRecord(fields, nil))
			if len(back) != len(fields) {
				t.Fatalf("%s: %v came back as %v", cls, fields, back)
			}
			for k, v := range fields {
				if got := back[k]; fmt.Sprintf("%T %v", got, got) != fmt.Sprintf("%T %v", v, v) {
					t.Fatalf("%s.%s: %T %v came back as %T %v", cls, k, v, v, got, got)
				}
			}
		}
	}
}
