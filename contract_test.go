package mmdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
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

// srcPkg is one package directory's non-test files.
type srcPkg struct {
	path  string // import path
	files map[string]*ast.File
}

// parseTree parses the non-test files of every package in the tree, the
// benchmark module included. internal/index/indextest is test support and
// is left out.
func parseTree(t *testing.T) []srcPkg {
	t.Helper()
	var pkgs []srcPkg
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") || dir == filepath.FromSlash("internal/index/indextest") {
			return filepath.SkipDir
		}
		if files := parsePackage(t, dir); len(files) > 0 {
			pkgs = append(pkgs, srcPkg{path.Join("repro", filepath.ToSlash(dir)), files})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// fileImports maps a file's local import names to their import paths.
func fileImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		ip, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(ip)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = ip
	}
	return imports
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// probeMethods are the exported methods of internal/ types that only
// tests call, each kept for the reason given.
var probeMethods = map[string]string{
	"internal/index/exthash.Table.GlobalDepth": "the directory-doubling tests read the depth the table grew to",
	"internal/lock.Manager.Holds":              "txn and storage tests check which locks a transaction still holds",
	"internal/obs.Registry.MispredictCount":    "lifecycle tests check the audit counts a misprediction once",
	"internal/recovery.Manager.PendingRecords": "recovery tests bound the committed records not yet propagated",
}

// TestEveryInternalFunctionHasACaller: no exported package-level function
// or method in internal/ is reached from tests alone. A function must be
// referenced from a non-test file somewhere in the tree — its own
// package, another internal package, the root package, cmd/, examples/
// or the benchmark module. A method must be selected by its name (x.Name)
// in some non-test file; the check resolves no types, so a selector of
// any method or field of that name counts. A probe or teardown that tests
// need is on probeMethods with its reason. internal/index/indextest is
// test support: its functions need no caller, and its calls do not count
// as callers.
func TestEveryInternalFunctionHasACaller(t *testing.T) {
	pkgs := parseTree(t)
	referenced := map[string]bool{} // "import/path.Name"
	selected := map[string]bool{}   // every selector's name
	for _, p := range pkgs {
		for _, f := range p.files {
			imports := fileImports(f)
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
					selected[n.Sel.Name] = true
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
		pkg := strings.TrimPrefix(p.path, "repro/")
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				switch {
				case !ok || !fd.Name.IsExported():
				case fd.Recv == nil:
					if !referenced[p.path+"."+fd.Name.Name] {
						orphans = append(orphans, pkg+"."+fd.Name.Name)
					}
				default:
					name := pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					if !selected[fd.Name.Name] && probeMethods[name] == "" {
						orphans = append(orphans, name)
					}
				}
			}
		}
	}
	slices.Sort(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests", o)
	}
	for name := range probeMethods {
		if i := strings.LastIndexByte(name, '.'); selected[name[i+1:]] {
			t.Errorf("%s is on probeMethods but has a caller outside tests", name)
		}
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

// TestFluentCallsResolveNoNames: the fluent calls only record the names
// they are given, and bind resolves them all before the query takes a
// lock. So no *Query method but bind and the resolver it calls looks a
// column up (ColumnIndex) or calls the resolver.
func TestFluentCallsResolveNoNames(t *testing.T) {
	binders := map[string]bool{"bind": true, "resolve": true}
	for name, f := range parsePackage(t, ".") {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || recvName(fd.Recv.List[0].Type) != "Query" || binders[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if se, ok := n.(*ast.SelectorExpr); ok && (se.Sel.Name == "ColumnIndex" || se.Sel.Name == "resolve") {
					t.Errorf("%s: (*Query).%s resolves a name (%s); only bind may", name, fd.Name.Name, se.Sel.Name)
				}
				return true
			})
		}
	}
}

// TestOnlyBindReadsLiteralTypes: bind decides what a predicate's value
// means — NULL, or of another type than its column, and the conjunction
// can never hold — so no other file of the package asks a predicate's
// val for its Type or whether it IsNull: the planners and the residual
// filter take a bound query's values as its columns' type.
func TestOnlyBindReadsLiteralTypes(t *testing.T) {
	for name, f := range parsePackage(t, ".") {
		if filepath.Base(name) == "bind.go" {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if se, ok := call.Fun.(*ast.SelectorExpr); ok && (se.Sel.Name == "Type" || se.Sel.Name == "IsNull") {
					if v, ok := se.X.(*ast.SelectorExpr); ok && v.Sel.Name == "val" {
						t.Errorf("%s: %s reads a predicate value's %s; only bind may", name, fd.Name.Name, se.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// fieldAllowList are exported fields of internal/ structs that no non-test
// file sets, each kept for the reason given.
var fieldAllowList = map[string]string{
	"internal/plan.JoinInput.SkewedDups": "the §3.3.5 decision-table row for a skewed build: the chooser reads it and the table tests pin that row",
}

// TestEveryInternalFieldIsSet: every exported field of a struct type
// declared in internal/ is set by some non-test file of the tree, the
// benchmark module included — in a composite literal, by a conversion
// from another struct type, by an assignment, an increment or a call
// through its address (x.F = …, x.F++, &x.F, x.F.Add(1)). A field only
// tests set keeps alive the branch that reads it, which the caller guard
// cannot see. The packages are type-checked, so a promoted field, an
// alias or a generic type counts as the field it is. Embedded fields are
// not checked; fieldAllowList holds the exceptions.
func TestEveryInternalFieldIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	fset := token.NewFileSet()
	// A field's key is where it is declared, which its object carries
	// alike when checked from source and when imported.
	key := func(v *types.Var) string {
		p := fset.Position(v.Pos())
		return fmt.Sprintf("%s %s:%d %s", v.Pkg().Path(), filepath.Base(p.Filename), p.Line, v.Name())
	}
	declared := map[string]string{} // key → "internal/pkg.Type.Field"
	set := map[string]bool{}
	for dir, prefix := range map[string]string{".": "repro", "benchmark": "repro/benchmark"} {
		cmd := exec.Command(gobin, "list", "-export", "-deps", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		type listed struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
		}
		var pkgs []listed
		exports := map[string]string{}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			exports[p.ImportPath] = p.Export
			if strings.HasPrefix(p.ImportPath, prefix) && p.ImportPath != "repro/internal/index/indextest" {
				pkgs = append(pkgs, p)
			}
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
		for _, p := range pkgs {
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(p.ImportPath, "repro/internal/") {
				for _, name := range pkg.Scope().Names() {
					tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
					if !ok || tn.IsAlias() {
						continue
					}
					if st, ok := tn.Type().Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							if f := st.Field(i); f.Exported() && !f.Embedded() {
								declared[key(f)] = strings.TrimPrefix(p.ImportPath, "repro/") + "." + name + "." + f.Name()
							}
						}
					}
				}
			}
			// mark sets every field selected along x.a.b[i].F.
			mark := func(e ast.Expr) {
				for {
					switch x := e.(type) {
					case *ast.SelectorExpr:
						if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
							set[key(s.Obj().(*types.Var).Origin())] = true
						}
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.ParenExpr:
						e = x.X
					default:
						return
					}
				}
			}
			structOf := func(e ast.Expr) *types.Struct {
				typ := info.Types[e].Type
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				if typ == nil {
					return nil
				}
				st, _ := typ.Underlying().(*types.Struct)
				return st
			}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							mark(l)
						}
					case *ast.IncDecStmt:
						mark(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							mark(n.X)
						}
					case *ast.CallExpr:
						if tv := info.Types[n.Fun]; tv.IsType() {
							if st := structOf(n.Fun); st != nil {
								for i := 0; i < st.NumFields(); i++ {
									set[key(st.Field(i).Origin())] = true
								}
							}
						} else if se, ok := n.Fun.(*ast.SelectorExpr); ok {
							if s := info.Selections[se]; s != nil && s.Kind() == types.MethodVal {
								if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
									mark(se.X)
								}
							}
						}
					case *ast.CompositeLit:
						st := structOf(n)
						for i := 0; st != nil && i < len(n.Elts); i++ {
							f := st.Field(i) // a positional element
							if kv, ok := n.Elts[i].(*ast.KeyValueExpr); ok {
								for j := 0; j < st.NumFields(); j++ {
									if st.Field(j).Name() == kv.Key.(*ast.Ident).Name {
										f = st.Field(j)
									}
								}
							}
							set[key(f.Origin())] = true
						}
					}
					return true
				})
			}
		}
	}
	var unset []string
	for k, name := range declared {
		if !set[k] && fieldAllowList[name] == "" {
			unset = append(unset, name)
		} else if set[k] && fieldAllowList[name] != "" {
			t.Errorf("%s is on fieldAllowList but a non-test file sets it", name)
		}
	}
	slices.Sort(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no non-test file", u)
	}
}
