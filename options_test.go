package mmdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// tuned replaces db's planner tuning and returns db. Call it before the
// first query: the tuning is read as each query plans.
func tuned(db *Database, tu tuning) *Database {
	db.tune = tu
	return db
}

// TestOptionsFields pins the fields a caller can set. A planner
// crossover is a plan.Default* constant, the planner picks every method,
// and a crossover a test must move is the unexported tuning.
func TestOptionsFields(t *testing.T) {
	want := []string{
		"Dir", "DeviceInterval", "SlotsPerPartition", "HeapPerPartition",
		"DisableMetrics", "Parallelism", "SlowQueryThreshold",
		"SlowQueryLogSize", "MemoryBudget",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		got = append(got, f.Name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Options fields = %v, want %v", got, want)
	}
}

// TestNoExportedConfigTypes: the package exports no *Config type, so no
// planner tuning reaches callers through a type alias.
func TestNoExportedConfigTypes(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts := spec.(*ast.TypeSpec); ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Config") {
					t.Errorf("%s exports type %s", name, ts.Name.Name)
				}
			}
		}
	}
}
