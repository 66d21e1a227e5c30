// Package lock implements the MM-DBMS concurrency control of §2.4:
// two-phase locking at partition granularity. In a memory-resident system
// transactions are short, so coarse locks held briefly beat tuple-level
// locking, whose bookkeeping "would be comparable to the cost of accessing
// [the tuple] — thus doubling the cost of tuple accesses". Deadlocks are
// detected with a waits-for graph derived from the live lock tables, when
// a request would close a cycle, and resolved by aborting the youngest
// transaction on that cycle (the largest TxnID): the requester itself, or
// a transaction already waiting, whose Lock call then returns ErrDeadlock.
// The oldest transaction of a cycle is never the victim, so a transaction
// that retries under a fresh, larger id cannot keep killing the one that
// is about to finish.
//
// The manager knows resources only as comparable values; the hierarchy is
// the transaction layer's (package txn states it in full): a relation lock
// covers the relation's partitions, because no transaction holds
// X(partition) without X(relation). A reader therefore takes S(relation)
// alone, and what a statement pays here is one Lock per table it names.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// TxnID identifies a transaction.
type TxnID uint64

// ErrDeadlock is returned to the victim of a deadlock: the youngest
// transaction on a cycle in the waits-for graph, from the Lock call it is
// making or blocked in. The caller is expected to abort.
var ErrDeadlock = errors.New("lock: deadlock detected")

// Resource is anything lockable — the engine locks *storage.Relation and
// *storage.Partition pointers. Values must be comparable.
type Resource any

// Observer receives concurrency-control events. The obs registry
// implements it; the interface lives here so the lock manager does not
// depend on the metrics layer. Implementations must be safe for
// concurrent use.
type Observer interface {
	// LockWait reports one request that had to queue, with the time it
	// spent waiting (including requests that ended in an error).
	LockWait(d time.Duration)
	// Deadlock reports one request denied to break a cycle in the
	// waits-for graph.
	Deadlock()
}

// Manager is a blocking two-phase lock manager.
//
// The uncontended path allocates nothing in steady state: lock-table
// entries and per-transaction records are recycled through free lists
// (guarded by mu like everything else), an entry carries its first few
// holders inline, a transaction's held locks are a slice, and a waiter
// with its channel exists only for a request that actually queues.
type Manager struct {
	mu    sync.Mutex
	locks map[Resource]*state
	txns  map[TxnID]*txnState
	// Recycled records, at most maxFree of each; a burst beyond that is
	// left to the collector.
	freeStates []*state
	freeTxns   []*txnState
	grants     uint64
	obs        Observer
}

const (
	// inlineHolders is how many holders a lock-table entry stores without
	// a separate slice: a relation's writer plus a few pointer readers.
	inlineHolders = 4
	maxFree       = 256
	// maxPooledHeld bounds the held-lock slice a recycled transaction
	// record keeps, so one wide transaction does not pin its slice forever.
	maxPooledHeld = 1024
)

type holder struct {
	txn  TxnID
	mode Mode
}

// state is one lock-table entry. holders starts out backed by inline and
// spills to the heap, by append, only past inlineHolders.
type state struct {
	holders []holder
	queue   []*waiter
	inline  [inlineHolders]holder
}

// txnState is what the manager knows about one transaction: the resources
// it holds (modes live in the entries' holder lists) and the resource it
// is blocked on, if any. The waits-for edges are derived from waiting
// plus the live holder and queue tables on every check, so they can never
// go stale — a cycle that forms when lock ownership migrates is still
// found.
type txnState struct {
	held    []Resource
	waiting Resource // nil when not blocked
}

type waiter struct {
	txn     TxnID
	mode    Mode
	granted chan error
}

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		locks: make(map[Resource]*state),
		txns:  make(map[TxnID]*txnState),
	}
}

// SetObserver wires the metrics observer. Pass nil to disable. May be
// called at any time; events in flight may use the previous observer.
func (m *Manager) SetObserver(o Observer) {
	m.mu.Lock()
	m.obs = o
	m.mu.Unlock()
}

// Lock acquires res in the given mode for txn, blocking until granted. It
// returns ErrDeadlock if txn is chosen as the victim of a deadlock, at
// once or while it waits; the caller is expected to abort. Re-acquiring a
// held lock is a no-op; holding Shared and requesting Exclusive upgrades
// when possible.
func (m *Manager) Lock(txn TxnID, res Resource, mode Mode) error {
	m.mu.Lock()
	if m.acquire(txn, res, mode) {
		m.mu.Unlock()
		return nil
	}
	// Must wait. Record what we wait for, then break every cycle the wait
	// closes in the (dynamically derived) waits-for graph, youngest
	// transaction first. A victim other than the requester is blocked in
	// its own Lock call: it is taken out of its queue and woken with the
	// error, and still holds its locks until its caller aborts, so the
	// requester queues all the same.
	obs := m.obs // captured under m.mu; callbacks run outside it
	ts := m.txnState(txn)
	ts.waiting = res
	deadlocks := 0
	report := func() {
		for ; obs != nil && deadlocks > 0; deadlocks-- {
			obs.Deadlock()
		}
	}
	for {
		victim, ok := m.cycleVictim(txn, txn, map[TxnID]bool{})
		if !ok {
			break
		}
		deadlocks++
		if victim == txn {
			ts.waiting = nil
			m.dropIfIdle(txn, ts)
			m.mu.Unlock()
			report()
			return ErrDeadlock
		}
		m.evict(victim)
	}
	if deadlocks > 0 && m.acquire(txn, res, mode) {
		// The victims were only queued ahead of us.
		m.mu.Unlock()
		report()
		return nil
	}
	w := &waiter{txn: txn, mode: mode, granted: make(chan error, 1)}
	st := m.locks[res]
	st.queue = append(st.queue, w)
	m.mu.Unlock()
	report()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	err := <-w.granted
	if obs != nil {
		obs.LockWait(time.Since(start))
	}
	return err
}

// evict denies the request a blocked transaction is waiting on: its waiter
// leaves the queue and its Lock call returns ErrDeadlock. Whoever was
// queued behind it may now be first in line.
func (m *Manager) evict(txn TxnID) {
	ts := m.txns[txn]
	res := ts.waiting
	st := m.locks[res]
	for i, w := range st.queue {
		if w.txn == txn {
			copy(st.queue[i:], st.queue[i+1:])
			st.queue[len(st.queue)-1] = nil
			st.queue = st.queue[:len(st.queue)-1]
			w.granted <- ErrDeadlock
			break
		}
	}
	ts.waiting = nil
	m.dropIfIdle(txn, ts)
	m.wake(st, res)
}

// TryLock acquires res in mode only if it is immediately grantable —
// no queueing, no waiting, no deadlock detection. It reports whether
// the lock was taken (or already held at sufficient strength). Callers
// that must never block on writers (statistics exposition) use it and
// degrade gracefully on false.
func (m *Manager) TryLock(txn TxnID, res Resource, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquire(txn, res, mode)
}

// acquire grants res to txn if that needs no waiting: the lock is already
// held at sufficient strength, or it is compatible with every other
// holder and nobody is queued. FIFO fairness: a request may only jump the
// queue when no one is queued; otherwise a stream of compatible readers
// would starve a queued writer forever.
func (m *Manager) acquire(txn TxnID, res Resource, mode Mode) bool {
	st := m.locks[res]
	if st == nil {
		st = m.newState()
		m.locks[res] = st
		m.grant(st, txn, res, mode)
		return true
	}
	if i := st.holderIndex(txn); i >= 0 && (st.holders[i].mode == Exclusive || st.holders[i].mode == mode) {
		return true
	}
	if len(st.queue) == 0 && st.grantable(txn, mode) {
		m.grant(st, txn, res, mode)
		return true
	}
	return false
}

func (m *Manager) newState() *state {
	if n := len(m.freeStates); n > 0 {
		st := m.freeStates[n-1]
		m.freeStates = m.freeStates[:n-1]
		return st
	}
	st := &state{}
	st.holders = st.inline[:0]
	return st
}

// txnState returns txn's record, creating it on first use.
func (m *Manager) txnState(txn TxnID) *txnState {
	ts := m.txns[txn]
	if ts == nil {
		if n := len(m.freeTxns); n > 0 {
			ts = m.freeTxns[n-1]
			m.freeTxns = m.freeTxns[:n-1]
		} else {
			ts = &txnState{}
		}
		m.txns[txn] = ts
	}
	return ts
}

// dropIfIdle forgets a transaction that neither holds nor waits for
// anything, recycling its record.
func (m *Manager) dropIfIdle(txn TxnID, ts *txnState) {
	if len(ts.held) > 0 || ts.waiting != nil {
		return
	}
	delete(m.txns, txn)
	if len(m.freeTxns) < maxFree && cap(ts.held) <= maxPooledHeld {
		m.freeTxns = append(m.freeTxns, ts)
	}
}

func (st *state) holderIndex(txn TxnID) int {
	for i := range st.holders {
		if st.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// grantable reports whether txn can hold the resource in mode right now.
func (st *state) grantable(txn TxnID, mode Mode) bool {
	for _, h := range st.holders {
		if h.txn == txn {
			continue // upgrade: only other holders conflict
		}
		if mode == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

func (m *Manager) grant(st *state, txn TxnID, res Resource, mode Mode) {
	ts := m.txnState(txn)
	if i := st.holderIndex(txn); i >= 0 {
		st.holders[i].mode = mode // upgrade: already in ts.held
	} else {
		st.holders = append(st.holders, holder{txn: txn, mode: mode})
		ts.held = append(ts.held, res)
	}
	ts.waiting = nil
	m.grants++
}

// blockers derives the current out-edges of a waiting transaction: the
// holders of the resource it waits on, plus the waiters queued ahead of it
// (FIFO hand-off means it waits for them too). For the transaction
// currently requesting (not yet queued) the whole queue is ahead.
func (m *Manager) blockers(txn TxnID, fn func(TxnID) bool) bool {
	ts := m.txns[txn]
	if ts == nil || ts.waiting == nil {
		return true
	}
	st := m.locks[ts.waiting]
	if st == nil {
		return true
	}
	for _, h := range st.holders {
		if h.txn != txn && !fn(h.txn) {
			return false
		}
	}
	for _, w := range st.queue {
		if w.txn == txn {
			break
		}
		if !fn(w.txn) {
			return false
		}
	}
	return true
}

// cycleVictim reports whether target is reachable from cur in the derived
// waits-for graph and, if it is, the youngest transaction (largest id) on
// the path found, cur included. Called with cur == target it finds a cycle
// through the requester; every other transaction on it is blocked in Lock.
func (m *Manager) cycleVictim(target, cur TxnID, seen map[TxnID]bool) (TxnID, bool) {
	victim, found := cur, false
	m.blockers(cur, func(next TxnID) bool {
		if next == target {
			found = true
			return false
		}
		if !seen[next] {
			seen[next] = true
			if v, ok := m.cycleVictim(target, next, seen); ok {
				found = true
				if v > victim {
					victim = v
				}
				return false
			}
		}
		return true
	})
	return victim, found
}

// ReleaseAll releases every lock txn holds and removes it from the wait
// bookkeeping — the commit/abort path of strict two-phase locking.
func (m *Manager) ReleaseAll(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.txns[txn]
	if ts == nil {
		return
	}
	for i, res := range ts.held {
		m.release(txn, res)
		ts.held[i] = nil
	}
	ts.held = ts.held[:0]
	ts.waiting = nil
	m.dropIfIdle(txn, ts)
}

// release drops txn from res's holders and hands the lock to the waiters
// it unblocks. The caller maintains txn's held list.
func (m *Manager) release(txn TxnID, res Resource) {
	st := m.locks[res]
	if st == nil {
		return
	}
	if i := st.holderIndex(txn); i >= 0 {
		last := len(st.holders) - 1
		st.holders[i] = st.holders[last]
		st.holders = st.holders[:last]
	}
	m.wake(st, res)
}

// wake hands res to its queued waiters, in order, while they are
// grantable, and recycles the entry once nobody holds or awaits it.
func (m *Manager) wake(st *state, res Resource) {
	for len(st.queue) > 0 {
		w := st.queue[0]
		if !st.grantable(w.txn, w.mode) {
			break
		}
		st.queue[0] = nil
		st.queue = st.queue[1:]
		m.grant(st, w.txn, res, w.mode)
		w.granted <- nil
	}
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(m.locks, res)
		if len(m.freeStates) < maxFree {
			st.queue = nil // its backing array was consumed from the front
			m.freeStates = append(m.freeStates, st)
		}
	}
}

// Holds reports the mode txn holds on res, if any.
func (m *Manager) Holds(txn TxnID, res Resource) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.locks[res]; st != nil {
		if i := st.holderIndex(txn); i >= 0 {
			return st.holders[i].mode, true
		}
	}
	return Shared, false
}

// Stats is a point-in-time view of the lock table.
type Stats struct {
	Resources int    // resources currently held or awaited
	Txns      int    // transactions holding or awaiting a lock
	Waiting   int    // transactions blocked in Lock
	Grants    uint64 // locks granted since the manager was created (upgrades included, re-acquisitions not)
}

// Stats returns the current table sizes and the cumulative grant count.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Resources: len(m.locks), Txns: len(m.txns), Grants: m.grants}
	for _, ts := range m.txns {
		if ts.waiting != nil {
			s.Waiting++
		}
	}
	return s
}

// String renders a summary for debugging.
func (m *Manager) String() string {
	s := m.Stats()
	return fmt.Sprintf("lock.Manager{resources: %d, txns: %d, waiting: %d}",
		s.Resources, s.Txns, s.Waiting)
}
