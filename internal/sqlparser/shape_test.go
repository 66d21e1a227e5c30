package sqlparser

import (
	"strings"
	"testing"
)

// lexed lexes and parses src, returning the lexer for shape checks.
func lexed(t *testing.T, src string) *Lexed {
	t.Helper()
	x, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	if _, err := x.Parse(); err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return x
}

// TestShapeLiftsValueLiterals: statements that differ only in value
// literals of one kind share a fingerprint and a shape; a literal of
// another kind, a structural literal (LIMIT count, ORDER BY ordinal) or
// any other token tells shapes apart.
func TestShapeLiftsValueLiterals(t *testing.T) {
	for _, c := range []struct {
		a, b      string
		sameFP    bool
		sameShape bool
	}{
		{"SELECT id FROM t WHERE id = 5", "SELECT id FROM t WHERE id = -123456", true, true},
		{"SELECT id FROM t WHERE s = 'a'", "SELECT  id\nFROM t WHERE s = 'it''s'", true, true},
		{"INSERT INTO t VALUES (1, 2.5, 'x')", "INSERT INTO t VALUES (7, -0.25, '')", true, true},
		{"UPDATE t SET v = 1 WHERE id >= 3", "UPDATE t SET v = 9 WHERE id >= 4", true, true},
		{"SELECT id FROM t WHERE id = 5", "SELECT id FROM t WHERE id = 5.0", false, false},
		{"SELECT id FROM t WHERE id = 5", "SELECT id FROM t WHERE id = '5'", false, false},
		{"SELECT id FROM t WHERE id = 5.0", "SELECT id FROM t WHERE id = '5'", false, false},
		{"SELECT id FROM t LIMIT 5", "SELECT id FROM t LIMIT 6", true, false},
		{"SELECT id, v FROM t ORDER BY 1", "SELECT id, v FROM t ORDER BY 2", true, false},
		{"SELECT id FROM t WHERE id = 5", "select id from t where id = 5", false, false},
		{"SELECT id FROM t WHERE id = 5", "SELECT id FROM u WHERE id = 5", false, false},
		{"SELECT id FROM t WHERE id = 5", "SELECT id FROM t WHERE id < 5", false, false},
		{"SELECT id FROM t WHERE v = NULL", "SELECT id FROM t WHERE v = TRUE", false, false},
	} {
		x, y := lexed(t, c.a), lexed(t, c.b)
		if got := x.Fingerprint() == y.Fingerprint(); got != c.sameFP {
			t.Errorf("%q vs %q: same fingerprint %v, want %v", c.a, c.b, got, c.sameFP)
		}
		if got := y.Matches(x.Shape()); got != c.sameShape {
			t.Errorf("%q matches the shape of %q: %v, want %v", c.b, c.a, got, c.sameShape)
		}
		if got := x.Matches(y.Shape()); got != c.sameShape {
			t.Errorf("%q matches the shape of %q: %v, want %v", c.a, c.b, got, c.sameShape)
		}
		x.Release()
		y.Release()
	}
}

// TestLiteralsMatchTheAST: Literals decodes every literal as the parser
// does, and each value's Slot points at its own literal.
func TestLiteralsMatchTheAST(t *testing.T) {
	x := lexed(t, "UPDATE t SET s = 'O''Brien' WHERE id >= -7 AND f < 2.5")
	defer x.Release()
	st, err := x.Parse()
	if err != nil {
		t.Fatal(err)
	}
	lits, err := x.Literals()
	if err != nil {
		t.Fatal(err)
	}
	u := st.(*Update)
	for _, e := range []Expr{u.Value, u.Where[0].Value, u.Where[1].Value} {
		if e.Slot < 1 || lits[e.Slot-1] != e {
			t.Errorf("value %+v: slot %d holds %+v", e, e.Slot, lits)
		}
	}
	if lits[0].Str != "O'Brien" || lits[1].Int != -7 || lits[2].Float != 2.5 {
		t.Errorf("literals decoded as %+v", lits)
	}
	// A literal out of range fails as the parser fails on it.
	const bad = "SELECT id FROM t WHERE id = 99999999999999999999 LIMIT 1"
	_, perr := Parse(bad)
	y, err := Lex(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Release()
	if _, lerr := y.Literals(); perr == nil || lerr == nil || perr.Error() != lerr.Error() {
		t.Errorf("out-of-range literal: Parse says %v, Literals %v", perr, lerr)
	}
}

// TestNonASCIIIdentifiers: identifiers are read as UTF-8, so a table the
// fluent API can name is one SQL can name, and a stray character is
// reported as the one the input holds.
func TestNonASCIIIdentifiers(t *testing.T) {
	sel := parse(t, "SELECT ñandu, naïve FROM café WHERE ñandu = 'ü'").(*Select)
	if sel.From != "café" || len(sel.Cols) != 2 || sel.Cols[0] != "ñandu" || sel.Cols[1] != "naïve" || sel.Where[0].Value.Str != "ü" {
		t.Fatalf("%+v", sel)
	}
	for src, want := range map[string]string{
		"SELECT * FROM a € b":    `unexpected character '€' at offset 16`,
		"SELECT * FROM a \xff b": `unexpected byte "\xff" at offset 16`,
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}
}

// TestColdParseAllocs pins what parsing costs without a statement cache:
// punctuation and unescaped strings are substrings of the statement,
// keywords match without lower-casing, and the INSERT row and SELECT list
// are sized before they fill.
func TestColdParseAllocs(t *testing.T) {
	slack := 0.0
	if raceEnabled {
		slack = 2 // sync.Pool drops a pooled lexer now and then
	}
	for _, c := range []struct {
		src     string
		ceiling float64
	}{
		{"INSERT INTO fact VALUES (1, 2, 3, 4, 5, 6, 7, 'eight')", 6},
		{"SELECT id, v FROM fact WHERE id = 500", 8},
		{"SELECT id, v FROM fact WHERE id >= 300 AND id < 400", 8},
	} {
		run := func() {
			if _, err := Parse(c.src); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := testing.AllocsPerRun(200, run); n > c.ceiling+slack {
			t.Errorf("%s: %.1f allocations, ceiling %.0f", c.src, n, c.ceiling)
		}
	}
}
