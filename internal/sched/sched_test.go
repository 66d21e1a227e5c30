package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryMorselOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Stop()
	q := NewQuery(p, nil, 0)
	const n = 1000
	var counts [n]atomic.Int32
	q.Run(4, n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("morsel %d executed %d times", i, got)
		}
	}
}

func TestRunSingleMorsel(t *testing.T) {
	p := NewPool(2)
	defer p.Stop()
	q := NewQuery(p, nil, 0)
	var ran atomic.Int32
	st := q.Run(8, 1, func(i int) { ran.Add(1) })
	if ran.Load() != 1 {
		t.Fatalf("ran %d times", ran.Load())
	}
	if st.Wait < 0 {
		t.Fatalf("negative wait %v", st.Wait)
	}
}

func TestConcurrentRunsShareThePool(t *testing.T) {
	p := NewPool(4)
	defer p.Stop()
	const queries, morsels = 8, 64
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := NewQuery(p, nil, 0)
			q.Run(4, morsels, func(int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != queries*morsels {
		t.Fatalf("executed %d morsels, want %d", got, queries*morsels)
	}
}

// A heavy set must not starve a small set: with one worker and a large
// low-priority set already queued, a second set still gets admitted
// round-robin (the worker alternates claim batches between them).
func TestAdmissionIsFairAcrossSets(t *testing.T) {
	p := NewPool(1)
	defer p.Stop()
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	heavy := NewQuery(p, nil, 0)
	go func() {
		heavy.Run(1, 64, func(i int) {
			once.Do(func() { close(started) })
			<-release
		})
	}()
	<-started // heavy set owns the only worker
	lightDone := make(chan struct{})
	light := NewQuery(p, nil, 0)
	go func() {
		light.Run(1, 1, func(int) {})
		close(lightDone)
	}()
	// Wait until the light set is enqueued (visible as one extra queued
	// morsel) — the worker is blocked inside a heavy morsel meanwhile, so
	// depth is otherwise stable. Without this the release loop can race
	// the enqueue and feed every send to further heavy claim batches.
	deadline := time.Now().Add(5 * time.Second)
	for p.SnapshotStats().QueueDepth < 64 {
		if time.Now().After(deadline) {
			t.Fatal("light set never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	// Free the worker morsel by morsel; round-robin admission must hand
	// it to the light set long before the heavy set's 64 morsels drain.
	for i := 0; i < 2*claimBatch; i++ {
		release <- struct{}{}
	}
	select {
	case <-lightDone:
	case <-time.After(5 * time.Second):
		t.Fatal("light query starved behind heavy set")
	}
	close(release)
}

func TestPriorityBreaksAdmissionTies(t *testing.T) {
	p := NewPool(1)
	defer p.Stop()
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	blocker := NewQuery(p, nil, 0)
	go func() {
		blocker.Run(1, 1, func(int) {
			once.Do(func() { close(started) })
			<-gate
		})
	}()
	<-started
	// Both queued while the worker is blocked; the high-priority one
	// must run first when it frees.
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	runOne := func(prio, id int) {
		defer wg.Done()
		q := NewQuery(p, nil, prio)
		q.Run(1, 1, func(int) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
	}
	wg.Add(2)
	go runOne(0, 0)
	time.Sleep(50 * time.Millisecond) // low-priority set enqueued first
	go runOne(5, 1)
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("execution order %v, want high-priority first", order)
	}
}

func TestStealsHappenAndAreCounted(t *testing.T) {
	p := NewPool(4)
	defer p.Stop()
	q := NewQuery(p, nil, 0)
	// limit 1 forces a single claimant that batches morsels into its
	// deque; the other three workers can only make progress by stealing.
	var maxPar, par atomic.Int32
	q.Run(1, 256, func(int) {
		c := par.Add(1)
		for {
			m := maxPar.Load()
			if c <= m || maxPar.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		par.Add(-1)
	})
	if p.SnapshotStats().Steals == 0 {
		t.Fatal("no steals recorded for a limit-1 set on a 4-worker pool")
	}
	if q.Steals() == 0 {
		t.Fatal("per-query steal count not folded")
	}
}

func TestCancelDiscardsUnclaimedMorsels(t *testing.T) {
	p := NewPool(2)
	defer p.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	q := NewQuery(p, ctx, 0)
	var ran atomic.Int32
	block := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	go func() {
		q.Run(2, 10_000, func(int) {
			ran.Add(1)
			once.Do(func() { close(block) })
			time.Sleep(100 * time.Microsecond)
		})
		close(done)
	}()
	<-block
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if got := ran.Load(); got >= 10_000 {
		t.Fatalf("cancel discarded nothing: %d morsels ran", got)
	}
	if q.Err() == nil {
		t.Fatal("Err() nil after context cancel")
	}
	// The workers must be free for other queries immediately.
	q2 := NewQuery(p, nil, 0)
	var ok atomic.Int32
	q2.Run(2, 8, func(int) { ok.Add(1) })
	if ok.Load() != 8 {
		t.Fatalf("pool not released after cancel: %d/8 morsels ran", ok.Load())
	}
}

func TestWaitTimeAccumulates(t *testing.T) {
	p := NewPool(1)
	defer p.Stop()
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	blocker := NewQuery(p, nil, 0)
	go func() {
		blocker.Run(1, 1, func(int) {
			once.Do(func() { close(started) })
			<-gate
		})
	}()
	<-started
	q := NewQuery(p, nil, 0)
	waited := make(chan RunStats, 1)
	go func() { waited <- q.Run(1, 1, func(int) {}) }()
	time.Sleep(50 * time.Millisecond)
	close(gate)
	st := <-waited
	if st.Wait < 25*time.Millisecond {
		t.Fatalf("admission wait %v, want >= 25ms behind a blocked worker", st.Wait)
	}
	if q.WaitTime() < st.Wait {
		t.Fatalf("query wait %v < run wait %v", q.WaitTime(), st.Wait)
	}
}

// TestNilHandleIsSafe: a nil handle's accessors read as zero, and Run
// schedules its morsels on the shared pool.
func TestNilHandleIsSafe(t *testing.T) {
	var q *Query
	if q.Err() != nil || q.Steals() != 0 || q.WaitTime() != 0 {
		t.Fatal("nil *Query accessors must be inert")
	}
	var ran atomic.Int32
	q.Run(4, 100, func(int) { ran.Add(1) })
	if ran.Load() != 100 {
		t.Fatalf("nil handle ran %d of 100 morsels", ran.Load())
	}
}

func TestQueueDepthReturnsToZero(t *testing.T) {
	p := NewPool(4)
	defer p.Stop()
	q := NewQuery(p, nil, 0)
	q.Run(4, 500, func(int) {})
	if d := p.SnapshotStats().QueueDepth; d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
	if b := p.SnapshotStats().Busy; b != 0 {
		t.Fatalf("busy %d after drain, want 0", b)
	}
}

// TestGrantGaugeBreaksAdmissionTies: at equal priority, the query
// holding fewer granted memory bytes is admitted first, so grant
// holders drain instead of queueing more work in front of starved
// siblings. With no gauges set (both zero) admission is unchanged.
func TestGrantGaugeBreaksAdmissionTies(t *testing.T) {
	p := NewPool(1)
	defer p.Stop()
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	blocker := NewQuery(p, nil, 0)
	go func() {
		blocker.Run(1, 1, func(int) {
			once.Do(func() { close(started) })
			<-gate
		})
	}()
	<-started
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	runOne := func(grant int64, id int) {
		defer wg.Done()
		q := NewQuery(p, nil, 0)
		q.SetMemBytes(grant)
		q.Run(1, 1, func(int) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
	}
	wg.Add(2)
	go runOne(1<<20, 0) // fat grant enqueued first
	time.Sleep(50 * time.Millisecond)
	go runOne(0, 1) // no grant: must jump the queue
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("execution order %v, want grant-free query first", order)
	}
	if g := blocker.memBytes.Load(); g != 0 {
		t.Fatalf("default gauge = %d, want 0", g)
	}
	var nq *Query
	nq.SetMemBytes(5) // nil-safe
}

// TestFinishedSetIsUnreachable: once Run returns and the workers have
// gone idle, the pool holds no reference to the set's closure — operator
// scratch a morsel body captured is collectable, not pinned by an idle
// pool until the next query overwrites the slot.
func TestFinishedSetIsUnreachable(t *testing.T) {
	p := NewPool(2)
	defer p.Stop()
	q := NewQuery(p, nil, 0)
	freed := make(chan struct{})
	func() {
		scratch := new([1 << 16]byte)
		runtime.SetFinalizer(scratch, func(*[1 << 16]byte) { close(freed) })
		q.Run(2, 8, func(i int) { scratch[i]++ })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("an idle pool still references the finished set's closure")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
