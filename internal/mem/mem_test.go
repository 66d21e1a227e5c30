package mem

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilManagerUnlimited(t *testing.T) {
	var m *Manager
	if s := m.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil Snapshot = %+v", s)
	}
	r := m.Reserve()
	if r != nil {
		t.Fatalf("nil Reserve returned %v", r)
	}
	if !r.TryGrant(1 << 40) {
		t.Fatal("nil reservation TryGrant failed")
	}
	if err := r.Grant(context.Background(), 1<<40); err != nil {
		t.Fatalf("nil reservation Grant: %v", err)
	}
	r.Force(1)
	r.Release(1)
	r.NoteReversal(1)
	r.NoteRepartition(1)
	r.Close()
	if r.Held() != 0 {
		t.Fatal("nil reservation tracked state")
	}
	if r.FairShare() < 1<<61 {
		t.Fatalf("nil FairShare = %d", r.FairShare())
	}
	if r.Available() < 1<<61 {
		t.Fatalf("nil Available = %d", r.Available())
	}
}

func TestNewManagerZeroIsNil(t *testing.T) {
	if NewManager(0) != nil || NewManager(-5) != nil {
		t.Fatal("non-positive budget should yield the nil manager")
	}
}

func TestTryGrantBoundary(t *testing.T) {
	m := NewManager(100)
	r := m.Reserve()
	defer r.Close()
	if !r.TryGrant(100) {
		t.Fatal("exact-budget grant refused")
	}
	if r.TryGrant(1) {
		t.Fatal("grant past budget allowed")
	}
	if r.Held() != 100 {
		t.Fatalf("held = %d", r.Held())
	}
	r.Release(40)
	if !r.TryGrant(40) {
		t.Fatal("released bytes not reusable")
	}
	s := m.Snapshot()
	if s.Granted != 100 || s.Forced != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestGrantWaitsForRelease(t *testing.T) {
	m := NewManager(100)
	a := m.Reserve()
	b := m.Reserve()
	defer a.Close()
	defer b.Close()
	if !a.TryGrant(80) {
		t.Fatal("setup grant failed")
	}
	done := make(chan error, 1)
	go func() { done <- b.Grant(context.Background(), 50) }()
	// b must block: 80 + 50 > 100 but 50 <= total - b.held.
	select {
	case err := <-done:
		t.Fatalf("Grant returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.Release(80)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Grant after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Grant never woke after release")
	}
	if b.Held() != 50 {
		t.Fatalf("b held = %d", b.Held())
	}
	if m.Snapshot().Forced != 0 {
		t.Fatal("waitable grant should not count as forced")
	}
}

func TestGrantContextCancel(t *testing.T) {
	m := NewManager(100)
	a := m.Reserve()
	b := m.Reserve()
	defer a.Close()
	defer b.Close()
	if !a.TryGrant(80) {
		t.Fatal("setup grant failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Grant(ctx, 50) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Grant after cancel: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Grant never observed cancellation")
	}
	if b.Held() != 0 {
		t.Fatalf("cancelled grant held %d bytes", b.Held())
	}
}

func TestGrantForcedOvercommit(t *testing.T) {
	m := NewManager(100)
	r := m.Reserve()
	defer r.Close()
	// Larger than the whole budget: must not wait, must force.
	if err := r.Grant(context.Background(), 150); err != nil {
		t.Fatalf("oversized Grant: %v", err)
	}
	if r.Held() != 150 || m.Snapshot().Forced != 1 {
		t.Fatalf("held=%d forced=%d", r.Held(), m.Snapshot().Forced)
	}
	// Request beyond what siblings could ever return (total - own held
	// is negative now): again immediate.
	if err := r.Grant(context.Background(), 10); err != nil {
		t.Fatalf("second Grant: %v", err)
	}
	s := m.Snapshot()
	if s.Granted != 160 || s.Forced != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestForce(t *testing.T) {
	m := NewManager(100)
	r := m.Reserve()
	defer r.Close()
	r.Force(60) // within budget: not an overcommit
	if m.Snapshot().Forced != 0 {
		t.Fatal("in-budget Force counted as overcommit")
	}
	r.Force(60) // 120 > 100
	if f := m.Snapshot().Forced; f != 1 {
		t.Fatalf("forced = %d", f)
	}
	if m.Snapshot().Granted != 120 {
		t.Fatalf("granted = %d", m.Snapshot().Granted)
	}
}

func TestFairShare(t *testing.T) {
	m := NewManager(120)
	a := m.Reserve()
	if a.FairShare() != 120 {
		t.Fatalf("1 active: %d", a.FairShare())
	}
	b := m.Reserve()
	c := m.Reserve()
	if a.FairShare() != 40 {
		t.Fatalf("3 active: %d", a.FairShare())
	}
	b.Close()
	c.Close()
	if a.FairShare() != 120 {
		t.Fatalf("back to 1 active: %d", a.FairShare())
	}
	a.Close()
}

func TestCloseReleasesHeld(t *testing.T) {
	m := NewManager(100)
	a := m.Reserve()
	b := m.Reserve()
	defer b.Close()
	if !a.TryGrant(90) {
		t.Fatal("setup grant failed")
	}
	done := make(chan error, 1)
	go func() { done <- b.Grant(context.Background(), 50) }()
	time.Sleep(10 * time.Millisecond)
	a.Close() // releases 90, wakes b
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Grant after Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake waiter")
	}
	a.Close() // idempotent
	if got := m.Snapshot().Granted; got != 50 {
		t.Fatalf("granted after close = %d", got)
	}
}

func TestNotifyHook(t *testing.T) {
	m := NewManager(100)
	r := m.Reserve()
	var last atomic.Int64
	r.Notify = func(h int64) { last.Store(h) }
	r.TryGrant(30)
	if last.Load() != 30 {
		t.Fatalf("notify after grant = %d", last.Load())
	}
	r.Release(10)
	if last.Load() != 20 {
		t.Fatalf("notify after release = %d", last.Load())
	}
	r.Close()
	if last.Load() != 0 {
		t.Fatalf("notify after close = %d", last.Load())
	}
}

func TestDefenseCounters(t *testing.T) {
	m := NewManager(100)
	r := m.Reserve()
	defer r.Close()
	r.NoteReversal(2)
	r.NoteRepartition(3)
	m.NoteReversal(1)
	s := m.Snapshot()
	if s.Reversals != 3 || s.Repartitions != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// TestStarvationHammer drives many concurrent reservations through
// grant/release cycles against a small budget under -race: every
// waitable grant must eventually complete, accounting must return to
// zero, and nothing may be forced (each request fits the budget).
func TestStarvationHammer(t *testing.T) {
	const (
		budget  = 1 << 16
		workers = 16
		rounds  = 200
	)
	m := NewManager(budget)
	var wg sync.WaitGroup
	var granted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := m.Reserve()
			defer r.Close()
			for i := 0; i < rounds; i++ {
				n := int64(1024 + (w*977+i*131)%4096)
				if i%3 == 0 {
					if r.TryGrant(n) {
						granted.Add(1)
						r.Release(n)
					}
					continue
				}
				if err := r.Grant(context.Background(), n); err != nil {
					t.Errorf("Grant: %v", err)
					return
				}
				granted.Add(1)
				r.Release(n)
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Granted != 0 || s.Waiting != 0 {
		t.Fatalf("leaked accounting: %+v", s)
	}
	if s.Forced != 0 {
		t.Fatalf("in-budget requests were forced: %+v", s)
	}
	if granted.Load() == 0 {
		t.Fatal("no grants completed")
	}
}

// TestHammerWithCancellation mixes cancelled contexts into the
// contention storm; cancelled grants must not leak held bytes.
func TestHammerWithCancellation(t *testing.T) {
	m := NewManager(1 << 14)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := m.Reserve()
			defer r.Close()
			for i := 0; i < 100; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*time.Millisecond)
				n := int64(512 + (w*613+i*89)%2048)
				if err := r.Grant(ctx, n); err == nil {
					r.Release(n)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if s := m.Snapshot(); s.Granted != 0 || s.Waiting != 0 {
		t.Fatalf("leaked accounting: %+v", s)
	}
}
