package obs

import (
	"strings"
	"testing"
	"time"
)

// TestSchedExposition wires a scheduler-stats source and checks the
// saturation snapshot flows into Snapshot, the human block, and the
// Prometheus exposition.
func TestSchedExposition(t *testing.T) {
	r := NewRegistry()
	r.SetSchedSource(func() SchedStats {
		return SchedStats{Workers: 8, QueueDepth: 3, Busy: 5, Steals: 42, Parks: 7}
	})

	s := r.Snapshot()
	if s.Sched == nil {
		t.Fatal("Snapshot.Sched nil with a source wired")
	}
	if s.Sched.Steals != 42 || s.Sched.Workers != 8 {
		t.Fatalf("sched snapshot = %+v", *s.Sched)
	}
	if !strings.Contains(s.String(), "scheduler         workers=8 queue=3 busy=5 steals=42 parks=7") {
		t.Fatalf("String() missing scheduler line:\n%s", s.String())
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE mmdb_sched_queue_depth gauge",
		"mmdb_sched_queue_depth 3",
		"mmdb_sched_workers 8",
		"mmdb_sched_busy_workers 5",
		"# TYPE mmdb_sched_steals_total counter",
		"mmdb_sched_steals_total 42",
		"mmdb_sched_park_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSchedExpositionAbsentWithoutSource checks a registry with no
// scheduler source (a bare NewRegistry) emits no scheduler series at all.
func TestSchedExpositionAbsentWithoutSource(t *testing.T) {
	r := NewRegistry()
	if r.Snapshot().Sched != nil {
		t.Fatal("Sched populated without a source")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), "mmdb_sched_") {
		t.Fatal("scheduler series emitted without a source")
	}
	if strings.Contains(r.Snapshot().String(), "scheduler") {
		t.Fatal("String() shows a scheduler line without a source")
	}
}

// TestSlowQuerySchedFields checks the slow-log record carries the
// scheduler costs.
func TestSlowQuerySchedFields(t *testing.T) {
	l := NewSlowLog(0, 4)
	l.Record(SlowQuery{ID: 1, Text: "q", Wall: time.Second, SchedSteals: 5, SchedWait: 3 * time.Millisecond})
	got := l.Snapshot()
	if len(got) != 1 || got[0].SchedSteals != 5 || got[0].SchedWait != 3*time.Millisecond {
		t.Fatalf("slow log sched fields lost: %+v", got)
	}
	out := FormatSlow(got)
	if !strings.Contains(out, "sched steals=5 waited=3ms") {
		t.Fatalf("FormatSlow missing sched column:\n%s", out)
	}
}

// TestTraceSchedLine checks EXPLAIN ANALYZE renders the scheduler cost
// line when the query ran on the pool.
func TestTraceSchedLine(t *testing.T) {
	tr := &QueryTrace{
		Root:        &TraceNode{Op: "query", RowsOut: 1},
		SchedSteals: 9,
		SchedWait:   2 * time.Millisecond,
	}
	if out := tr.Format(); !strings.Contains(out, "sched: steals=9 waited=2ms") {
		t.Fatalf("trace missing sched line:\n%s", out)
	}
	quiet := &QueryTrace{Root: &TraceNode{Op: "query"}}
	if out := quiet.Format(); strings.Contains(out, "sched:") {
		t.Fatalf("off-pool trace shows sched line:\n%s", out)
	}
}
