package rpe

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/schema"
)

// CompiledPred tests one element's record.
type CompiledPred func(rec schema.Record) bool

// compile turns the predicate into an executable test of the records of
// cls and its subclasses: the field, or a dotted path's first segment, is
// resolved to its slot once, here, and the test reads that slot.
// Comparison follows SQL-like semantics: absent fields satisfy nothing,
// numerics compare across int/float representations, strings compare
// lexicographically. Dotted field paths test structured data with
// existential semantics: the predicate holds when any reachable leaf
// value satisfies it (anyLeaf).
func (p FieldPred) compile(cls *schema.Class) (CompiledPred, error) {
	leaf, err := p.leafTest()
	if err != nil {
		return nil, err
	}
	field, path, dotted := strings.Cut(p.Field, ".")
	slot, ok := cls.Slot(field)
	if !ok {
		return nil, fmt.Errorf("rpe: class %q has no field %q", cls.Name, field)
	}
	if dotted {
		rest := strings.Split(path, ".")
		return func(r schema.Record) bool {
			v := r[slot]
			return v != nil && anyLeaf(v, rest, leaf)
		}, nil
	}
	return func(r schema.Record) bool {
		v := r[slot]
		return v != nil && leaf(v)
	}, nil
}

// anyLeaf reports whether leaf holds for any value the path segs reaches
// from v: list and set containers fan out over their elements, maps index
// by the segment, and composite data types resolve the segment as a
// field. A leaf that is itself a list or set is tested element-wise. It
// is the natural semantics for "a route to 10.0.0.0 exists in the routing
// table".
func anyLeaf(v any, segs []string, leaf func(any) bool) bool {
	if len(segs) == 0 {
		if items, ok := v.([]any); ok {
			for _, item := range items {
				if leaf(item) {
					return true
				}
			}
			return false
		}
		return leaf(v)
	}
	switch x := v.(type) {
	case []any:
		for _, item := range x {
			if anyLeaf(item, segs, leaf) {
				return true
			}
		}
	case map[string]any:
		if sub, ok := x[segs[0]]; ok {
			return anyLeaf(sub, segs[1:], leaf)
		}
	}
	return false
}

// leafTest builds the single-value comparison for the predicate's op.
func (p FieldPred) leafTest() (func(any) bool, error) {
	switch p.Op {
	case OpIn:
		list := p.List
		return func(v any) bool {
			for _, item := range list {
				if cmp, comparable := compareValues(v, item); comparable && cmp == 0 {
					return true
				}
			}
			return false
		}, nil
	case OpMatch:
		pat, ok := p.Value.(string)
		if !ok {
			return nil, fmt.Errorf("rpe: =~ requires a string pattern, got %v", p.Value)
		}
		return func(v any) bool {
			s, ok := v.(string)
			return ok && globMatch(pat, s)
		}, nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		op, val := p.Op, p.Value
		return func(v any) bool {
			cmp, comparable := compareValues(v, val)
			if !comparable {
				return false
			}
			switch op {
			case OpEq:
				return cmp == 0
			case OpNe:
				return cmp != 0
			case OpLt:
				return cmp < 0
			case OpLe:
				return cmp <= 0
			case OpGt:
				return cmp > 0
			case OpGe:
				return cmp >= 0
			}
			return false
		}, nil
	}
	return nil, fmt.Errorf("rpe: unknown operator %v", p.Op)
}

// compileAll conjoins the compiled forms of all predicates over the
// records of cls; no predicates compile to nil, an always-true test.
func compileAll(preds []FieldPred, cls *schema.Class) (CompiledPred, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	compiled := make([]CompiledPred, len(preds))
	for i, p := range preds {
		c, err := p.compile(cls)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
	}
	if len(compiled) == 1 {
		return compiled[0], nil
	}
	return func(r schema.Record) bool {
		for _, c := range compiled {
			if !c(r) {
				return false
			}
		}
		return true
	}, nil
}

// Equal reports whether two field values are equal: numbers by value
// across int and float representations, other values when they are the
// same. It is the equality of joins, as compareValues is the ordering of
// predicates.
func Equal(a, b any) bool {
	if c, ok := compareValues(a, b); ok {
		return c == 0
	}
	return a == b
}

// compareValues compares two field values of possibly different dynamic
// types. It returns (-1|0|1, true) when comparable, (0, false) otherwise.
// Two integers compare exactly; a float on either side compares both as
// float64.
func compareValues(a, b any) (int, bool) {
	if ai, ok := asInt(a); ok {
		if bi, ok := asInt(b); ok {
			return cmp.Compare(ai, bi), true
		}
	}
	if af, ok := asFloat(a); ok {
		if bf, ok := asFloat(b); ok {
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			}
			return 0, true
		}
		return 0, false
	}
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		if !ok {
			return 0, false
		}
		return strings.Compare(av, bv), true
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return 0, false
		}
		switch {
		case av == bv:
			return 0, true
		case !av:
			return -1, true
		}
		return 1, true
	}
	return 0, false
}

func asInt(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

func asFloat(v any) (float64, bool) {
	if n, ok := asInt(v); ok {
		return float64(n), true
	}
	switch n := v.(type) {
	case float32:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

// globMatch matches s against a pattern where '*' matches any (possibly
// empty) substring. It is the semantics of the =~ operator.
func globMatch(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := strings.Index(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return strings.HasSuffix(s, last)
}
