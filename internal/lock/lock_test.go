package lock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "p0", Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- m.Lock(2, "p0", Shared) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("second shared lock blocked")
	}
}

func TestExclusiveBlocksAndHandsOff(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "p0", Exclusive); err != nil {
		t.Fatal(err)
	}
	var acquired atomic.Bool
	done := make(chan error)
	go func() {
		err := m.Lock(2, "p0", Exclusive)
		acquired.Store(true)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("exclusive lock granted while held")
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Holds(2, "p0"); !ok {
		t.Fatal("handoff lost")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		if err := m.Lock(1, "p0", Shared); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Lock(1, "p0", Exclusive); err != nil {
		t.Fatal("self-upgrade with no contention failed")
	}
	if mode, _ := m.Holds(1, "p0"); mode != Exclusive {
		t.Fatalf("mode=%v", mode)
	}
	// X then S request stays X.
	if err := m.Lock(1, "p0", Shared); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, "p0"); mode != Exclusive {
		t.Fatal("downgraded")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Txn 1 waits for b (held by 2).
		m.Lock(1, "b", Exclusive)
	}()
	time.Sleep(50 * time.Millisecond)
	// Txn 2 requesting a (held by 1) closes the cycle.
	if err := m.Lock(2, "a", Exclusive); err != ErrDeadlock {
		t.Fatalf("err=%v, want ErrDeadlock", err)
	}
	// Victim aborts; txn 1 gets its lock.
	m.ReleaseAll(2)
	deadline := time.After(time.Second)
	for {
		if _, ok := m.Holds(1, "b"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("txn 1 never acquired b after victim release")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestDeadlockVictimIsYoungest: when the older transaction's request closes
// the cycle, the younger one, already blocked, is the victim. Its Lock call
// returns ErrDeadlock, the reader queued behind it moves up, and the older
// transaction is granted once the victim has released.
func TestDeadlockVictimIsYoungest(t *testing.T) {
	m := NewManager()
	m.Lock(1, "a", Shared)
	m.Lock(5, "b", Exclusive)
	young := make(chan error, 1)
	go func() { young <- m.Lock(5, "a", Exclusive) }() // waits for 1
	waitFor(t, m, 1)
	behind := make(chan error, 1)
	go func() { behind <- m.Lock(3, "a", Shared) }() // FIFO: queued behind 5
	waitFor(t, m, 2)
	old := make(chan error, 1)
	go func() { old <- m.Lock(1, "b", Exclusive) }() // closes the cycle 1 -> 5 -> 1

	select {
	case err := <-young:
		if err != ErrDeadlock {
			t.Fatalf("younger transaction got %v, want ErrDeadlock", err)
		}
	case <-time.After(time.Second):
		t.Fatal("younger transaction was not chosen as the victim")
	}
	select {
	case err := <-behind:
		if err != nil {
			t.Fatalf("reader queued behind the victim got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("reader queued behind the victim was not woken")
	}
	select {
	case err := <-old:
		t.Fatalf("older transaction returned %v before the victim released", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(5) // the victim aborts
	select {
	case err := <-old:
		if err != nil {
			t.Fatalf("older transaction got %v, want the lock", err)
		}
	case <-time.After(time.Second):
		t.Fatal("older transaction never acquired b after the victim released")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
	if st := m.Stats(); st.Resources != 0 || st.Txns != 0 {
		t.Fatalf("lock table not empty afterwards: %+v", st)
	}
}

// waitFor blocks until n transactions are blocked in Lock.
func waitFor(t *testing.T, m *Manager, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); m.Stats().Waiting != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d transactions waiting, want %d", m.Stats().Waiting, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	m := NewManager()
	m.Lock(1, "p", Shared)
	m.Lock(2, "p", Shared)
	go func() { m.Lock(1, "p", Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	if err := m.Lock(2, "p", Exclusive); err != ErrDeadlock {
		t.Fatalf("err=%v, want ErrDeadlock on crossing upgrades", err)
	}
	m.ReleaseAll(2)
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const txns = 16
	const resources = 4
	var counters [resources]int64
	var wg sync.WaitGroup
	for id := TxnID(1); id <= txns; id++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				res := int(id+TxnID(iter)) % resources
				// Single-resource transactions cannot deadlock.
				if err := m.Lock(id, res, Exclusive); err != nil {
					t.Errorf("txn %d: %v", id, err)
					return
				}
				// Critical section: verify mutual exclusion.
				if n := atomic.AddInt64(&counters[res], 1); n != 1 {
					t.Errorf("mutual exclusion violated on %d: %d holders", res, n)
				}
				atomic.AddInt64(&counters[res], -1)
				m.ReleaseAll(id)
			}
		}(id)
	}
	wg.Wait()
}

func TestReleaseAllCleansUp(t *testing.T) {
	m := NewManager()
	m.Lock(1, "a", Shared)
	m.Lock(1, "b", Exclusive)
	m.ReleaseAll(1)
	if _, ok := m.Holds(1, "a"); ok {
		t.Fatal("lock survived ReleaseAll")
	}
	// Fresh acquisition by another txn succeeds immediately.
	if err := m.Lock(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
}

// TestUncontendedCycleAllocs pins the allocation-free fast path: one
// relation plus four partitions locked and released — a writer's commit —
// recycles its lock-table entries and its transaction record.
func TestUncontendedCycleAllocs(t *testing.T) {
	m := NewManager()
	res := []Resource{new(int), new(int), new(int), new(int), new(int)}
	id := TxnID(0)
	cycle := func() {
		id++
		for _, r := range res {
			if err := m.Lock(id, r, Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(id)
	}
	cycle() // fill the free lists
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("Lock×5 + ReleaseAll allocates %.1f times a cycle, want 0", n)
	}
	if s := m.Stats(); s.Resources != 0 || s.Txns != 0 {
		t.Fatalf("manager not empty after the cycles: %+v", s)
	}
}

// TestHoldersSpillPastInline holds one resource shared from more
// transactions than an entry stores inline, queues a writer behind them,
// and checks the hand-off and the clean-up.
func TestHoldersSpillPastInline(t *testing.T) {
	m := NewManager()
	const readers = 3 * inlineHolders
	for id := TxnID(1); id <= readers; id++ {
		if err := m.Lock(id, "r", Shared); err != nil {
			t.Fatal(err)
		}
	}
	writer := TxnID(readers + 1)
	got := make(chan error, 1)
	go func() { got <- m.Lock(writer, "r", Exclusive) }()
	for m.Stats().Waiting != 1 {
		time.Sleep(time.Millisecond)
	}
	// FIFO: a reader arriving behind the queued writer must not jump it.
	if m.TryLock(writer+1, "r", Shared) {
		t.Fatal("reader jumped a queued writer")
	}
	for id := TxnID(1); id <= readers; id++ {
		if mode, ok := m.Holds(id, "r"); !ok || mode != Shared {
			t.Fatalf("txn %d: holds=%v mode=%v", id, ok, mode)
		}
		select {
		case err := <-got:
			t.Fatalf("writer granted beside %d readers (err=%v)", readers-int(id)+1, err)
		default:
		}
		m.ReleaseAll(id)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(writer, "r"); !ok || mode != Exclusive {
		t.Fatalf("writer: holds=%v mode=%v", ok, mode)
	}
	m.ReleaseAll(writer)
	if s := m.Stats(); s.Resources != 0 || s.Txns != 0 || s.Waiting != 0 {
		t.Fatalf("manager not empty: %+v", s)
	}
}

// TestStatsCountsGrants: a grant is counted once per lock taken or
// upgraded, not per request, and a denied request leaves nothing behind.
func TestStatsCountsGrants(t *testing.T) {
	m := NewManager()
	m.Lock(1, "a", Shared)
	m.Lock(1, "a", Shared)    // re-acquisition: not a grant
	m.Lock(1, "a", Exclusive) // upgrade
	m.Lock(1, "b", Exclusive)
	if m.TryLock(2, "a", Shared) {
		t.Fatal("shared lock granted against an exclusive holder")
	}
	if s := m.Stats(); s.Grants != 3 || s.Resources != 2 || s.Txns != 1 {
		t.Fatalf("stats = %+v, want 3 grants on 2 resources by 1 txn", s)
	}
	m.ReleaseAll(1)
	if _, ok := m.Holds(1, "a"); ok {
		t.Fatal("ReleaseAll left the lock held")
	}
	if s := m.Stats(); s.Resources != 0 || s.Txns != 0 {
		t.Fatalf("manager not empty after ReleaseAll: %+v", s)
	}
}
