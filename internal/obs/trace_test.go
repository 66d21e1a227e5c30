package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/meter"
)

func sampleTrace() *QueryTrace {
	root := &TraceNode{Op: "query", RowsOut: 3}
	root.Add(&TraceNode{
		Op: "select", Detail: "emp", AccessPath: `hash lookup on "dept"`,
		RowsIn: 10000, RowsOut: 40, Wall: 120 * time.Microsecond,
		Ops: meter.Counters{Comparisons: 41, HashCalls: 1},
	})
	join := root.Add(&TraceNode{
		Op: "join", Detail: "emp ⋈ dept", AccessPath: "Hash Join",
		RowsIn: 40, RowsOut: 3, Wall: 80 * time.Microsecond,
		Ops: meter.Counters{Comparisons: 80, HashCalls: 40},
	})
	join.Add(&TraceNode{
		Op: "build", Detail: "dept", RowsIn: 10, RowsOut: 10,
		Wall: 9 * time.Microsecond, Ops: meter.Counters{HashCalls: 10},
	})
	return &QueryTrace{Root: root, Total: 412 * time.Microsecond}
}

func TestTraceTotalOps(t *testing.T) {
	tr := sampleTrace()
	ops := tr.TotalOps()
	if ops.Comparisons != 121 || ops.HashCalls != 51 {
		t.Fatalf("TotalOps = %+v, want cmp=121 hash=51", ops)
	}
	var nilTrace *QueryTrace
	if nilTrace.TotalOps() != (meter.Counters{}) {
		t.Fatal("nil trace should sum to zero")
	}
}

func TestTraceFormat(t *testing.T) {
	out := sampleTrace().Format()
	for _, want := range []string{
		"executed: 3 rows in 412µs",
		"cmp=121",
		`├─ select emp: hash lookup on "dept"  rows in=10000 out=40`,
		"└─ join emp ⋈ dept: Hash Join  rows in=40 out=3",
		"[cmp=80 hash=40]",
		"   └─ build dept", // child of the last top-level node, indented
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
	// Node lines use compact counters (zero fields omitted); only the
	// header prints the full §3.1 set.
	if strings.Contains(out, "[cmp=41 move=0") {
		t.Errorf("node lines should omit zero counters:\n%s", out)
	}
}

func TestTraceFormatEmpty(t *testing.T) {
	var tr *QueryTrace
	if got := tr.Format(); !strings.Contains(got, "no trace") {
		t.Fatalf("nil Format = %q", got)
	}
	if got := (&QueryTrace{}).Format(); !strings.Contains(got, "no trace") {
		t.Fatalf("rootless Format = %q", got)
	}
}

func TestTraceNodeLine(t *testing.T) {
	n := &TraceNode{Op: "project", Detail: "2 column(s)", AccessPath: "descriptor rewrite",
		RowsIn: 40, RowsOut: 40, Wall: 3 * time.Microsecond}
	line := n.Line()
	if !strings.Contains(line, "project 2 column(s): descriptor rewrite") ||
		!strings.Contains(line, "rows in=40 out=40") {
		t.Fatalf("Line = %q", line)
	}
	if strings.Contains(line, "[") {
		t.Fatalf("zero-op node should have no counter block: %q", line)
	}
	if strings.Contains(line, "refreshed:") {
		t.Fatalf("a node that refreshed nothing says it did: %q", line)
	}
	n.Refresh = SnapRefresh{Patched: 3, Cloned: 1, Tuples: 260, LockWait: 12 * time.Microsecond, Build: 40 * time.Microsecond}
	if want := "refreshed: 3 patched + 1 cloned partitions, 260 tuples, lock wait 12µs, build 40µs"; !strings.Contains(n.Line(), want) {
		t.Fatalf("Line = %q, want it to carry %q", n.Line(), want)
	}
}
