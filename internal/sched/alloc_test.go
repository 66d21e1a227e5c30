package sched

import (
	"sync/atomic"
	"testing"
)

// TestRunAllocs pins the scheduler's allocation profile: one task-set
// round trip (submit, admit, execute, retire) allocates nothing on a warm
// pool — the set and its done channel are reused — and a fan-out of many
// morsels costs exactly what a fan-out of few does.
func TestRunAllocs(t *testing.T) {
	p := NewPool(4)
	defer p.Stop()
	q := NewQuery(p, nil, 0)
	var sink atomic.Int64
	fn := func(int) { sink.Add(1) }
	q.Run(4, 16, fn) // warm the pool's set list

	small := testing.AllocsPerRun(100, func() { q.Run(4, 16, fn) })
	if small > 0 {
		t.Fatalf("task-set round trip: %.1f allocs, want 0", small)
	}
	big := testing.AllocsPerRun(20, func() { q.Run(4, 1<<14, fn) })
	t.Logf("allocs per Run: %.1f at 16 morsels, %.1f at 16Ki", small, big)
	if big > small {
		t.Fatalf("fan-out allocates per morsel: %.1f allocs for 16Ki morsels vs %.1f for 16", big, small)
	}
}
