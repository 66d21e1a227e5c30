package mmdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
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

// TestEveryInternalFunctionHasACaller: no exported package-level function
// in internal/ is reached from tests alone. Every one must be referenced
// from a non-test file somewhere in the tree — its own package, another
// internal package, the root package, cmd/, examples/ or the benchmark
// module. internal/index/indextest is test support: its functions need
// no caller, and its calls do not count as callers.
func TestEveryInternalFunctionHasACaller(t *testing.T) {
	type pkg struct {
		path  string // import path
		files map[string]*ast.File
	}
	var pkgs []pkg
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") || dir == filepath.FromSlash("internal/index/indextest") {
			return filepath.SkipDir
		}
		if files := parsePackage(t, dir); len(files) > 0 {
			pkgs = append(pkgs, pkg{path.Join("repro", filepath.ToSlash(dir)), files})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{} // "import/path.Name"
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := map[string]string{} // local name → import path
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = ip
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// Only a body can refer to a function; the declared
					// name is not a reference.
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						referenced[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					referenced[p.path+"."+n.Name] = true
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	var orphans []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "repro/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && !referenced[p.path+"."+fd.Name.Name] {
					orphans = append(orphans, strings.TrimPrefix(p.path, "repro/")+"."+fd.Name.Name)
				}
			}
		}
	}
	slices.Sort(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests", o)
	}
}

// TestQueryHasNoStrategyHints: the planner picks every method from the
// indices that exist and the sizes it sees, so a caller can pin nothing
// but the join order (ForceJoinOrder). *Query exports exactly the
// methods below, and the package exports no *Strategy type to choose a
// join, sort or order method with.
func TestQueryHasNoStrategyHints(t *testing.T) {
	want := []string{
		"Agg", "Analyze", "As", "Distinct", "Explain", "ForceJoinOrder",
		"GroupBy", "In", "Join", "JoinAs", "Limit", "On", "OrderBy",
		"Parallel", "Priority", "Run", "Select", "String", "Where",
		"WithContext",
	}
	var got []string
	for name, f := range parsePackage(t, ".") {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || !d.Name.IsExported() {
					continue
				}
				if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Query" {
						got = append(got, d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Strategy") {
						t.Errorf("%s exports type %s", name, ts.Name.Name)
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("*Query methods = %v, want %v", got, want)
	}
}
