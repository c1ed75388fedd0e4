package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// allowedMutators are the exported Set*/Instrument methods a runtime
// object may carry, as "package.Type.Method". Everything else is
// configured in its constructor: a setter can be called after the object
// starts serving, and nothing in the types orders the two.
var allowedMutators = map[string]bool{
	"core.DB.Instrument":          true, // publishes the DB's metrics into another registry
	"core.DB.SetStatementStats":   true, // swapped between the benchmark's passes
	"graph.Store.SetMutationHook": true, // installed after WAL recovery replays into the store
	"wal.Manager.SetEpoch":        true, // a fencing transition, not configuration
	"temporal.Clock.SetNow":       true,
	"obs.Registry.SetInfo":        true,
	"obs.Registry.SetHelp":        true,
	"obs.Span.SetDetail":          true,
	"obs.Gauge.Set":               true, // a metric's value write
	"schema.Schema.SetAbstract":   true, // schema definition, before Finalize
}

// TestConfigureAtConstruction fails on any atomic.Pointer field and any
// exported Set*/Instrument method outside allowedMutators in the
// non-test sources under internal/.
func TestConfigureAtConstruction(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isAtomicPointer(field.Type) {
						t.Errorf("%s: atomic.Pointer field; resolve the value in the constructor", fset.Position(field.Pos()))
					}
				}
			case *ast.FuncDecl:
				name := n.Name.Name
				if n.Recv == nil || !ast.IsExported(name) || !(strings.HasPrefix(name, "Set") || name == "Instrument") {
					return false
				}
				method := f.Name.Name + "." + recvType(n.Recv.List[0].Type) + "." + name
				if !allowedMutators[method] {
					t.Errorf("%s: exported mutator %s; take it as a constructor argument", fset.Position(n.Pos()), method)
				}
				return false
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isAtomicPointer reports whether a type expression mentions
// atomic.Pointer anywhere (a field, a slice or map of them, ...).
func isAtomicPointer(typ ast.Expr) bool {
	found := false
	ast.Inspect(typ, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pointer" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "atomic" {
				found = true
			}
		}
		return !found
	})
	return found
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
