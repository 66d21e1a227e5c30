package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	mmdb "repro"
)

const testScale = 0.01

func testData(t *testing.T, seed int64) *Data {
	t.Helper()
	d, err := Generate(seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testScratch(t *testing.T) *scratch {
	t.Helper()
	sc, err := newScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func statements(d *Data, n int) []string {
	g := newStmtGen(d.Seed, newShadow(d))
	out := make([]string, n)
	for i := range out {
		out[i] = g.next().SQL
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := testData(t, 7), testData(t, 7), testData(t, 8)
	if a.Checksum() != b.Checksum() {
		t.Fatalf("seed 7 gave data checksums %#x and %#x", a.Checksum(), b.Checksum())
	}
	if a.Checksum() == c.Checksum() {
		t.Fatalf("seeds 7 and 8 gave the same data checksum %#x", a.Checksum())
	}
	sa, sb, sc := statements(a, 500), statements(b, 500), statements(c, 500)
	same := 0
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("seed 7, statement %d: %q then %q", i, sa[i], sb[i])
		}
		if sa[i] == sc[i] {
			same++
		}
	}
	if same == len(sa) {
		t.Fatal("seeds 7 and 8 gave the same statement stream")
	}
}

// TestEmitsWhatBenchmarkJSONDeclares runs every workload both ways and
// holds the output against BENCHMARK.json: every declared name comes out
// exactly once per workload with its unit, and nothing else does.
func TestEmitsWhatBenchmarkJSONDeclares(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadDefs))
	}
	d := testData(t, 3)
	cfg := &config{seed: 3, scale: testScale, window: 600 * time.Millisecond, setups: 1}
	for _, w := range spec.Workloads {
		def := findWorkload(w.Name)
		if !name.MatchString(w.Name) || def == nil {
			t.Fatalf("workload %q is malformed or unknown to the harness", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want, run := spec.EndToEnd, runMeasured
			if traced {
				want, run = spec.PerLayer, runTraced
			}
			out, err := run(cfg, def, d, testScratch(t))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %s", w.Name, traced, out.Failed, out.Attempted, out.FirstErr)
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is declared but not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s is %v", w.Name, traced, m.Name, got.Value)
				}
			}
			if len(out.Metrics) != len(want) {
				for n := range out.Metrics {
					if !seen[n] {
						t.Errorf("%s traced=%v: %s is emitted but not declared", w.Name, traced, n)
					}
				}
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(out.Metrics), len(want))
			}
		}
	}
}

func TestSpansNest(t *testing.T) {
	d := testData(t, 5)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	cfg := &config{seed: 5, scale: testScale, window: 300 * time.Millisecond, setups: 1, traceOut: path}
	if _, err := runTraced(cfg, findWorkload("oltp_point"), d, testScratch(t)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("the traced run wrote no spans")
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	roots := map[int]int{}
	layers := map[string]bool{}
	for _, s := range spans {
		layers[s.Layer] = true
		if s.Parent < 0 {
			roots[s.OpID]++
		}
	}
	for op, n := range roots {
		if n != 1 {
			t.Fatalf("op %d has %d root spans", op, n)
		}
	}
	for _, l := range []string{"mmdb", "sqlparser", "plan", "exec"} {
		if !layers[l] {
			t.Errorf("no span of layer %s in an oltp_point trace", l)
		}
	}

	// A span that leaves its parent must be caught.
	bad := append([]Span(nil), spans...)
	for i := range bad {
		if bad[i].Parent >= 0 {
			bad[i].EndNS = bad[bad[i].Parent].EndNS + 1
			break
		}
	}
	if checkNesting(bad) == nil {
		t.Fatal("a child span ending after its parent was accepted")
	}
}

// TestOracleRejectsWrongRow changes one value behind the oracle's back.
func TestOracleRejectsWrongRow(t *testing.T) {
	d := testData(t, 9)
	e, err := openEngine(d, tFact, "")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	o := newOracle(d)
	x := &executor{e: e, verify: true}
	for _, k := range []kindID{kScanFilter, kGroupLo, kOrderFull, kTopK, kDistinct} {
		if _, err := x.do(o.op(k)); err != nil {
			t.Fatalf("untouched data: %v", err)
		}
	}
	row := -1
	for i, g := range d.GLo {
		if g == scanFilterKey {
			row = i
			break
		}
	}
	if row < 0 {
		t.Skip("no row with the filter key at this scale")
	}
	if err := e.fact.Update(e.factTuples[row], "v", mmdb.Int(d.V[row]+1)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []kindID{kScanFilter, kGroupLo, kOrderFull} {
		if _, err := x.do(o.op(k)); err == nil {
			t.Errorf("%v: a result with one wrong value was accepted", k)
		}
	}
	// With checksums off only row counts are compared, and those still hold.
	x.verify = false
	if _, err := x.do(o.op(kScanFilter)); err != nil {
		t.Errorf("row-count check: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread %v, want 1", s)
	}
}
