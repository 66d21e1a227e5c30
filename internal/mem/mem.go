// Package mem is the engine-wide memory grant manager: one budget per
// database, carved into per-query reservations that the scratch-hungry
// operators (radix join build tables, aggregation tables, sort arrays)
// must obtain a grant from before allocating. The paper assumes every
// hash-join build side fits comfortably in memory; at production scale
// concurrent queries fight over one heap, and a single skewed key can
// blow one partition past any cache- or budget-sized table. The grant
// manager turns that fight into an explicit protocol, following the
// robust-hash-join discipline of Jahangiri, Carey & Freytag: operators
// ask before they build, degrade gracefully (repartition, reverse
// roles) when the answer is no, and only overcommit as a recorded last
// resort when no amount of splitting can shrink the working set (a
// partition of all-equal keys).
//
// Admission is fair-share: with Q active reservations each query is
// entitled to total/Q bytes without waiting. TryGrant is the
// non-blocking probe the degradation paths pivot on; Grant waits (with
// context cancellation) for siblings to release, but never waits for
// memory that cannot exist — a request beyond the whole budget, or
// beyond what other queries could ever return, overcommits immediately
// and is counted as forced. That no-deadlock rule is what lets a morsel
// hold the grant for exactly the lifetime of one build table.
//
// A nil *Manager (or nil *Reservation) is the unbudgeted state: every
// grant succeeds instantly and nothing is tracked, so the engine wires
// the manager through unconditionally and pays one nil check when no
// budget is configured.
package mem

import (
	"context"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of the manager: the configured
// budget, bytes currently granted (may exceed Total when forced
// overcommits are outstanding), reservations blocked in Grant, and the
// monotonic defense counters the budgeted radix paths report.
type Stats struct {
	Total   int64 // configured budget, bytes
	Granted int64 // bytes currently granted across all reservations
	Waiting int64 // reservations currently blocked in Grant
	Forced  int64 // grants that overcommitted past the budget (monotonic)

	// Defense counters, reported by the budgeted operators through
	// NoteReversal / NoteRepartition: build/probe role reversals and
	// recursive fat-partition re-splits since the manager was created.
	Reversals    int64
	Repartitions int64
}

// Manager owns one memory budget. All methods are safe for concurrent
// use and safe on a nil receiver (the unlimited state).
type Manager struct {
	total int64

	mu      sync.Mutex
	cond    *sync.Cond
	granted int64
	active  int64 // open reservations

	waiting      atomic.Int64
	forced       atomic.Int64
	reversals    atomic.Int64
	repartitions atomic.Int64
}

// NewManager creates a manager over a budget of total bytes. total <= 0
// returns nil — the unlimited manager, on which every operation is a
// cheap no-op.
func NewManager(total int64) *Manager {
	if total <= 0 {
		return nil
	}
	m := &Manager{total: total}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Snapshot returns current stats. Safe on a nil receiver (zero Stats).
func (m *Manager) Snapshot() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	granted := m.granted
	m.mu.Unlock()
	return Stats{
		Total:        m.total,
		Granted:      granted,
		Waiting:      m.waiting.Load(),
		Forced:       m.forced.Load(),
		Reversals:    m.reversals.Load(),
		Repartitions: m.repartitions.Load(),
	}
}

// NoteReversal counts build/probe role reversals performed by a
// budgeted operator. Safe on a nil receiver.
func (m *Manager) NoteReversal(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.reversals.Add(n)
}

// NoteRepartition counts recursive fat-partition re-splits performed by
// a budgeted operator. Safe on a nil receiver.
func (m *Manager) NoteRepartition(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.repartitions.Add(n)
}

// Reservation is one query's admission handle on the manager: the unit
// fair share is computed over, and the owner of the query's granted
// bytes. Reservations are safe for concurrent use by a query's worker
// morsels. A nil *Reservation grants everything instantly.
type Reservation struct {
	m      *Manager
	held   atomic.Int64
	peak   atomic.Int64
	closed atomic.Bool

	// Notify, when non-nil, is called (unsynchronized, possibly from
	// several morsel workers) with the reservation's held bytes after
	// every grant or release — the hook the scheduler's grant-aware
	// admission reads through. Set it before the first grant.
	Notify func(held int64)
}

// Reserve opens a reservation. Safe on a nil receiver (returns nil, the
// unbudgeted reservation).
func (m *Manager) Reserve() *Reservation {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	m.active++
	m.mu.Unlock()
	return &Reservation{m: m}
}

// FairShare is the reservation's no-wait entitlement: total divided by
// the open reservations. Unlimited (1<<62) on a nil reservation.
func (r *Reservation) FairShare() int64 {
	if r == nil {
		return 1 << 62
	}
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	return r.m.fairShareLocked()
}

func (m *Manager) fairShareLocked() int64 {
	q := m.active
	if q < 1 {
		q = 1
	}
	return m.total / q
}

// Held returns the reservation's currently granted bytes.
func (r *Reservation) Held() int64 {
	if r == nil {
		return 0
	}
	return r.held.Load()
}

// Available is a racy estimate of what TryGrant(n) would succeed for
// right now: the slack under the budget, floored at zero. Callers use
// it to size degradation (how far to re-split a fat partition), so
// staleness only changes how aggressively they split, never
// correctness. Unlimited on a nil reservation.
func (r *Reservation) Available() int64 {
	if r == nil {
		return 1 << 62
	}
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	if avail := r.m.total - r.m.granted; avail > 0 {
		return avail
	}
	return 0
}

// TryGrant atomically grants n bytes if the budget has room, reporting
// whether it did. Never blocks; always true on a nil reservation.
func (r *Reservation) TryGrant(n int64) bool {
	if r == nil || n <= 0 {
		return true
	}
	m := r.m
	m.mu.Lock()
	if m.granted+n > m.total {
		m.mu.Unlock()
		return false
	}
	m.granted += n
	m.mu.Unlock()
	r.noteHeld(n)
	return true
}

// Grant obtains n bytes, waiting for siblings to release if necessary.
// It returns ctx.Err() if the context is cancelled while waiting.
//
// Grant never deadlocks on an impossible request: if n cannot be
// satisfied even after every OTHER reservation releases everything —
// n exceeds the whole budget, or exceeds budget minus this
// reservation's own held bytes — the bytes are granted immediately as
// a forced overcommit (counted in Stats.Forced). The caller asked for
// scratch that the budget can never supply; refusing would turn a
// memory limit into a correctness failure, which is exactly the
// thrash-or-fail behavior the dynamic hybrid design exists to avoid.
func (r *Reservation) Grant(ctx context.Context, n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	m := r.m
	m.mu.Lock()
	for m.granted+n > m.total {
		// Impossible to satisfy by waiting: overcommit and record it.
		if n > m.total-r.held.Load() {
			m.granted += n
			m.mu.Unlock()
			m.forced.Add(1)
			r.noteHeld(n)
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				m.mu.Unlock()
				return err
			}
		}
		m.waiting.Add(1)
		if ctx != nil && ctx.Done() != nil {
			// Wake the wait loop when the context fires; stop releases the
			// watcher as soon as the grant (or a broadcast) gets us moving.
			stop := context.AfterFunc(ctx, func() {
				m.mu.Lock()
				m.cond.Broadcast()
				m.mu.Unlock()
			})
			m.cond.Wait()
			stop()
		} else {
			m.cond.Wait()
		}
		m.waiting.Add(-1)
	}
	m.granted += n
	m.mu.Unlock()
	r.noteHeld(n)
	return nil
}

// Force grants n bytes unconditionally, overcommitting the budget if
// needed, and records the overcommit. The all-equal-keys bail-out uses
// it: a partition whose entries share one hash cannot be split smaller,
// so its table must build at whatever size it is.
func (r *Reservation) Force(n int64) {
	if r == nil || n <= 0 {
		return
	}
	m := r.m
	m.mu.Lock()
	over := m.granted+n > m.total
	m.granted += n
	m.mu.Unlock()
	if over {
		m.forced.Add(1)
	}
	r.noteHeld(n)
}

// Release returns n granted bytes and wakes waiters.
func (r *Reservation) Release(n int64) {
	if r == nil || n <= 0 {
		return
	}
	m := r.m
	m.mu.Lock()
	m.granted -= n
	if m.granted < 0 {
		m.granted = 0
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	r.noteHeld(-n)
}

// Peak returns the high-water mark of the reservation's held bytes —
// what EXPLAIN ANALYZE reports as the operator's grant.
func (r *Reservation) Peak() int64 {
	if r == nil {
		return 0
	}
	return r.peak.Load()
}

// Close releases everything the reservation still holds and retires it
// from the fair-share denominator. Idempotent; safe on nil.
func (r *Reservation) Close() {
	if r == nil || !r.closed.CompareAndSwap(false, true) {
		return
	}
	m := r.m
	held := r.held.Swap(0)
	m.mu.Lock()
	m.granted -= held
	if m.granted < 0 {
		m.granted = 0
	}
	m.active--
	m.cond.Broadcast()
	m.mu.Unlock()
	if r.Notify != nil {
		r.Notify(0)
	}
}

// noteHeld adjusts the held gauge and fires the Notify hook.
func (r *Reservation) noteHeld(delta int64) {
	h := r.held.Add(delta)
	for {
		p := r.peak.Load()
		if h <= p || r.peak.CompareAndSwap(p, h) {
			break
		}
	}
	if r.Notify != nil {
		r.Notify(h)
	}
}

// NoteReversal forwards to the manager. Safe on a nil reservation.
func (r *Reservation) NoteReversal(n int64) {
	if r == nil {
		return
	}
	r.m.NoteReversal(n)
}

// NoteRepartition forwards to the manager. Safe on a nil reservation.
func (r *Reservation) NoteRepartition(n int64) {
	if r == nil {
		return
	}
	r.m.NoteRepartition(n)
}
