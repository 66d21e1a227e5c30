package sqlparser

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// readSeeds reads a seed file: one Go string literal a line, skipping
// blank lines and # comments.
func readSeeds(tb testing.TB, path string) []string {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var seeds []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("%s: %q: %v", path, line, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzParseSQL fuzzes the full lexer + parser pipeline: no input may
// panic or hang, and every accepted statement must satisfy the AST's
// structural invariants (the contracts the executor relies on without
// re-checking). The seed corpus (testdata/seeds.txt) spans every
// statement kind plus the malformed shapes the lexer and parser
// explicitly reject.
func FuzzParseSQL(f *testing.F) {
	for _, src := range readSeeds(f, "testdata/seeds.txt") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		// An accepted statement has its own shape, and its literals
		// decode: a statement cache may key on it.
		x, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q) failed after Parse succeeded: %v", src, err)
		}
		if _, err := x.Parse(); err != nil {
			t.Fatalf("Lexed.Parse(%q): %v, Parse accepted it", src, err)
		}
		if !x.Matches(x.Shape()) {
			t.Fatalf("%q does not match its own shape", src)
		}
		if _, err := x.Literals(); err != nil {
			t.Fatalf("Literals(%q): %v", src, err)
		}
		x.Release()
		sel, ok := st.(*Select)
		if !ok {
			return
		}
		if sel.Cols != nil && sel.Items != nil {
			t.Fatalf("Parse(%q): both Cols and Items populated", src)
		}
		sawAgg := false
		for _, it := range sel.Items {
			if it.Agg != "" {
				sawAgg = true
			}
			if it.Col == "*" && it.Agg != "COUNT" {
				t.Fatalf("Parse(%q): star column outside COUNT(*): %+v", src, it)
			}
		}
		if sel.Items != nil && !sawAgg {
			t.Fatalf("Parse(%q): Items populated without any aggregate", src)
		}
		for _, o := range sel.OrderBy {
			if o.Col == "" {
				t.Fatalf("Parse(%q): empty ORDER BY column", src)
			}
			if n, err := strconv.Atoi(o.Col); err == nil && n < 1 {
				t.Fatalf("Parse(%q): non-positive ORDER BY ordinal %d", src, n)
			}
		}
		if sel.Limit < -1 {
			t.Fatalf("Parse(%q): limit %d below -1", src, sel.Limit)
		}
		// Every accepted join step names its table and relates it to an
		// earlier relation of the chain — the executor builds the join
		// graph from these without re-validating.
		scope := map[string]bool{sel.From: true}
		if sel.FromAlias != "" {
			scope = map[string]bool{sel.FromAlias: true}
		}
		for _, j := range sel.Joins {
			if j.Table == "" || j.LeftTable == "" {
				t.Fatalf("Parse(%q): join step missing table or left side: %+v", src, j)
			}
			if !scope[j.LeftTable] {
				t.Fatalf("Parse(%q): join references %q before it is in scope", src, j.LeftTable)
			}
			name := j.Table
			if j.Alias != "" {
				name = j.Alias
			}
			scope[name] = true
		}
	})
}
