package mmdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// parsePackage parses the non-test Go files of one package directory.
func parsePackage(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	return files
}

// TestOneReadContract: rows leave an index, and a tuple source, through
// one block read contract. internal/index exports exactly the Ordered and
// Hashed interfaces and internal/exec exactly Source and StageTable, so
// no optional capability comes back beside them; and no operator package
// type-asserts to an interface to find one: its only assertions are to
// the concrete pointer types its pools hand back.
func TestOneReadContract(t *testing.T) {
	for dir, want := range map[string][]string{
		"internal/index": {"Hashed", "Ordered"},
		"internal/exec":  {"Source", "StageTable"},
	} {
		var got []string
		for _, f := range parsePackage(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					if _, ok := ts.Type.(*ast.InterfaceType); ok {
						got = append(got, ts.Name.Name)
					}
				}
				return true
			})
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s exports interfaces %v, want %v", dir, got, want)
		}
	}
	for _, dir := range []string{"internal/index", "internal/tupleindex", "internal/exec", "internal/parallel"} {
		for name, f := range parsePackage(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if ta, ok := n.(*ast.TypeAssertExpr); ok {
					if _, ptr := ta.Type.(*ast.StarExpr); !ptr {
						t.Errorf("%s type-asserts to a non-pointer type", name)
					}
				}
				return true
			})
		}
	}
}
