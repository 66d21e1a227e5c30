// Package sched is the process-wide morsel scheduler: one elastic pool
// of workers shared by every concurrently running query, replacing the
// per-query worker sets the parallel layer used to spawn. N concurrent
// queries on a per-query-pool design launch N×GOMAXPROCS goroutines and
// fight the Go scheduler for cores; here the same N queries share
// GOMAXPROCS workers and fight only over morsels.
//
// The design follows the morsel-driven scheduling literature the roadmap
// points at (Leis et al.'s morsel-driven parallelism; Albutiu, Kemper &
// Neumann's locality-preferring work distribution):
//
//   - Each worker owns a small bounded deque. It pushes work it claims
//     for itself on one end and pops it back LIFO — the most recently
//     claimed morsel is the cache-warmest — while idle workers steal
//     FIFO from the other end, taking the coldest morsel and leaving
//     the victim's warm end alone.
//   - Work enters as task sets (one per operator invocation: "n morsels,
//     at most w claimants"). Admission is a fair round-robin over the
//     active sets, so a 10-million-morsel analytical query and a
//     three-morsel point lookup both get a worker as one frees up — the
//     heavy query cannot starve the fleet. Query priority is a tiebreak
//     on top of the round-robin, not a bypass of it.
//   - A set's limit caps how many workers claim from it concurrently
//     (the operator's planned degree); steals may briefly exceed it,
//     trading strict limits for never idling a core while work exists.
//
// Cancellation is cooperative at morsel granularity: a cancelled set
// stops handing out unclaimed morsels immediately and already-queued
// morsels are discarded unexecuted; Run returns once in-flight morsels
// finish.
//
// The package depends only on the standard library so every layer of
// the engine (exec specs, the parallel operators, the database surface)
// can reference it without cycles.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// claimBatch is how many morsels one admission claim moves into the
// claiming worker's deque: enough to amortize the admission scan, small
// enough that a skewed set leaves morsels for thieves. It mirrors the
// parallel layer's morsels-per-worker oversubscription.
const claimBatch = 4

// dequeCap bounds a worker's private deque. It only needs to hold one
// admission batch plus stolen strays; keeping it tiny keeps the whole
// deque in one cache line's reach under the per-deque mutex.
const dequeCap = 16

// task is one claimable unit: morsel idx of a set.
type task struct {
	set *taskSet
	idx int
}

// deque is a worker's bounded ring of claimed tasks. The owner pushes
// and pops at the tail (LIFO, cache-warm end); thieves take from the
// head (FIFO, the coldest task). A mutex per deque is cheap at morsel
// granularity — a claim moves thousands of rows of work per lock.
type deque struct {
	mu         sync.Mutex
	buf        [dequeCap]task
	head, tail int // ring positions; tail is the owner end
	size       atomic.Int32
}

func (d *deque) pushBottom(t task) bool {
	d.mu.Lock()
	if int(d.size.Load()) == dequeCap {
		d.mu.Unlock()
		return false
	}
	d.buf[d.tail] = t
	d.tail = (d.tail + 1) % dequeCap
	d.size.Add(1)
	d.mu.Unlock()
	return true
}

func (d *deque) popBottom() (task, bool) {
	d.mu.Lock()
	if d.size.Load() == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	d.tail = (d.tail - 1 + dequeCap) % dequeCap
	t := d.buf[d.tail]
	d.buf[d.tail] = task{}
	d.size.Add(-1)
	d.mu.Unlock()
	return t, true
}

func (d *deque) stealTop() (task, bool) {
	d.mu.Lock()
	if d.size.Load() == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = task{}
	d.head = (d.head + 1) % dequeCap
	d.size.Add(-1)
	d.mu.Unlock()
	return t, true
}

// taskSet is one submitted batch of morsels: the unit of admission.
type taskSet struct {
	q  *Query
	fn func(idx int)
	n  int

	// Guarded by the pool mutex.
	next    int  // claim cursor
	pending int  // morsels not yet finished (or discarded)
	running int  // workers currently holding a claim slot
	limit   int  // max concurrent claim slots (the operator's degree)
	started bool // first morsel has been claimed
	wait    time.Duration

	cancelled atomic.Bool
	steals    atomic.Int64
	enqueued  time.Time
	// done receives one value when pending reaches 0. It is buffered, so
	// the signal waits for Run however late it looks, and the set (made
	// once, recycled through its pool's free list) reuses it.
	done chan struct{}
	// gen counts the set's uses. A worker's claim slot records the gen it
	// was taken under, so a slot released after the set finished and was
	// reused leaves the new use's running count alone. Guarded by the
	// pool mutex.
	gen uint64
}

// dead reports whether the set's morsels should no longer execute.
func (s *taskSet) dead() bool {
	if s.cancelled.Load() {
		return true
	}
	if ctx := s.q.ctx; ctx != nil && ctx.Err() != nil {
		s.cancelled.Store(true)
		return true
	}
	return false
}

// RunStats reports what one Run paid to the scheduler: how long the set
// waited for its first worker and how many of its morsels were stolen.
type RunStats struct {
	Wait   time.Duration
	Steals int64
}

// Stats is a point-in-time snapshot of pool saturation.
type Stats struct {
	Workers    int   // current worker count
	QueueDepth int64 // morsels accepted but not yet started
	Busy       int64 // workers executing a morsel right now
	Steals     int64 // total cross-worker steals
	Parks      int64 // total times a worker went idle
}

// Pool is a work-stealing morsel scheduler. The zero value is not
// usable; construct with NewPool or use the process-wide Shared pool.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*worker
	sets    []*taskSet
	free    []*taskSet // finished sets, reused so a Run allocates none
	rr      int        // round-robin admission cursor into sets
	idle    int
	stopped bool

	queued atomic.Int64
	busy   atomic.Int64
	steals atomic.Int64
	parks  atomic.Int64
}

type worker struct {
	pool    *Pool
	deq     deque
	quit    atomic.Bool
	slot    *taskSet // set this worker holds a claim slot on
	slotGen uint64   // slot's gen when the claim was taken
}

// NewPool starts a pool with n workers (n <= 0 means GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.mu.Lock()
	p.grow(n)
	p.mu.Unlock()
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, created on first use with
// GOMAXPROCS workers. Every database schedules onto it, which is the point: one machine, one worker fleet.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// grow spawns workers up to n total. Caller holds p.mu.
func (p *Pool) grow(n int) {
	for len(p.workers) < n {
		w := &worker{pool: p}
		p.workers = append(p.workers, w)
		go w.loop()
	}
}

// Stop terminates every worker and rejects future submissions. It is
// cooperative: each worker finishes its queued morsels and exits at its
// next idle point, so in-flight work is never dropped. Only pools from NewPool are stopped; the
// Shared pool lives as long as the process.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.stopped = true
	for _, w := range p.workers {
		w.quit.Store(true)
	}
	p.workers = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Workers returns the current worker count.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// SnapshotStats returns current saturation counters.
func (p *Pool) SnapshotStats() Stats {
	p.mu.Lock()
	n := len(p.workers)
	p.mu.Unlock()
	return Stats{
		Workers:    n,
		QueueDepth: p.queued.Load(),
		Busy:       p.busy.Load(),
		Steals:     p.steals.Load(),
		Parks:      p.parks.Load(),
	}
}

// Query is a per-query admission handle: the priority tiebreak, the
// cancellation context, and the query's accumulated scheduler costs.
// A nil *Query runs on the Shared pool with no context at priority 0;
// Err and the stat getters read as zero on it.
type Query struct {
	pool *Pool
	ctx  context.Context
	prio int

	steals    atomic.Int64
	waitNanos atomic.Int64
	// memBytes mirrors the query's currently granted memory-reservation
	// bytes (wired from mem.Reservation.Notify). At equal priority the
	// claim loop prefers the query holding fewer granted bytes, so a
	// query sitting on a large grant drains it instead of queueing more
	// work behind it while starved siblings wait. Zero (the unbudgeted
	// state) keeps admission exactly as before.
	memBytes atomic.Int64
}

// NewQuery returns an admission handle on p, which must not be nil: every
// query of a Database runs on Shared. A nil ctx never cancels.
func NewQuery(p *Pool, ctx context.Context, priority int) *Query {
	return &Query{pool: p, ctx: ctx, prio: priority}
}

// SetMemBytes publishes the query's currently granted memory bytes for
// grant-aware admission (see Query.memBytes). Safe on nil and from any
// goroutine — it is the mem.Reservation.Notify hook's target.
func (q *Query) SetMemBytes(n int64) {
	if q == nil {
		return
	}
	q.memBytes.Store(n)
}

// Err returns the context's error, if any.
func (q *Query) Err() error {
	if q == nil || q.ctx == nil {
		return nil
	}
	return q.ctx.Err()
}

// Steals returns the total morsels of this query stolen across workers.
func (q *Query) Steals() int64 {
	if q == nil {
		return 0
	}
	return q.steals.Load()
}

// WaitTime returns the total admission latency the query's task sets
// paid waiting for their first worker.
func (q *Query) WaitTime() time.Duration {
	if q == nil {
		return 0
	}
	return time.Duration(q.waitNanos.Load())
}

// Run submits n morsels with a concurrency limit of w and blocks until
// every morsel has finished or been discarded by cancellation. fn is
// called once per surviving morsel index, possibly concurrently from
// many workers. Run must not be called from inside a morsel body: a
// worker blocking on a nested set could deadlock the pool.
func (q *Query) Run(w, n int, fn func(idx int)) RunStats {
	if n <= 0 {
		return RunStats{}
	}
	if q == nil {
		q = NewQuery(Shared(), nil, 0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	p := q.pool
	enqueued := time.Now()
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		panic("sched: Run on a stopped pool")
	}
	// Every field is reset under the pool mutex: a worker may still hold
	// a claim slot from the set's previous use and check gen under it.
	var s *taskSet
	if k := len(p.free); k > 0 {
		s = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	} else {
		s = &taskSet{done: make(chan struct{}, 1)}
	}
	s.gen++
	s.q, s.fn, s.n = q, fn, n
	s.next, s.pending, s.running, s.limit = 0, n, 0, w
	s.started, s.wait, s.enqueued = false, 0, enqueued
	s.cancelled.Store(false)
	s.steals.Store(0)
	p.sets = append(p.sets, s)
	p.queued.Add(int64(n))
	// Wake enough parked workers to cover the set's degree.
	for i := 0; i < w && i < p.idle; i++ {
		p.cond.Signal()
	}
	p.mu.Unlock()

	if q.ctx != nil {
		select {
		case <-s.done:
		case <-q.ctx.Done():
			p.cancel(s)
			<-s.done
		}
	} else {
		<-s.done
	}
	st := RunStats{Wait: s.wait, Steals: s.steals.Load()}
	q.steals.Add(st.Steals)
	q.waitNanos.Add(int64(st.Wait))
	p.mu.Lock()
	s.q, s.fn = nil, nil // pin neither the query nor the operator's body
	p.free = append(p.free, s)
	p.mu.Unlock()
	return st
}

// cancel marks the set dead and discards its unclaimed morsels. Queued
// (claimed but unexecuted) morsels are discarded by the workers holding
// them, so done closes after at most the in-flight morsels finish.
func (p *Pool) cancel(s *taskSet) {
	p.mu.Lock()
	s.cancelled.Store(true)
	if drop := s.n - s.next; drop > 0 {
		s.next = s.n
		s.pending -= drop
		p.queued.Add(int64(-drop))
		if s.pending == 0 {
			s.done <- struct{}{}
		}
	}
	p.removeSet(s)
	p.mu.Unlock()
}

// removeSet drops s from the admission list. The vacated tail slot is
// cleared: a finished set's closure (and the operator scratch it
// captured) must not stay reachable from an idle pool. Caller holds p.mu.
func (p *Pool) removeSet(s *taskSet) {
	for i, x := range p.sets {
		if x == s {
			last := len(p.sets) - 1
			copy(p.sets[i:], p.sets[i+1:])
			p.sets[last] = nil
			p.sets = p.sets[:last]
			if p.rr > i {
				p.rr--
			}
			return
		}
	}
}

// finish retires one morsel of s. Caller holds p.mu.
func (p *Pool) finish(s *taskSet) {
	s.pending--
	if s.pending == 0 {
		s.done <- struct{}{}
	}
}

// loop is a worker's life: drain the private deque, admit a fresh claim
// batch, steal from a sibling, park.
func (w *worker) loop() {
	p := w.pool
	for {
		if t, ok := w.deq.popBottom(); ok {
			w.exec(t)
			continue
		}
		if w.quit.Load() {
			w.releaseSlot()
			return
		}
		if w.claim() {
			continue
		}
		if t, ok := p.steal(w); ok {
			p.steals.Add(1)
			t.set.steals.Add(1)
			t.set.q.steals.Add(1)
			w.exec(t)
			continue
		}
		p.park(w)
	}
}

// releaseSlot returns the worker's claim slot, if any, waking a parked
// sibling that may now be admissible on that set.
func (w *worker) releaseSlot() {
	if w.slot == nil {
		return
	}
	p := w.pool
	p.mu.Lock()
	w.dropSlot()
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// dropSlot gives up the worker's claim slot, if any; a slot on a set
// that has since been reused counts against nothing. Caller holds p.mu.
func (w *worker) dropSlot() {
	if w.slot != nil && w.slot.gen == w.slotGen {
		w.slot.running--
	}
	w.slot = nil
}

// claim runs the admission policy: release the current slot, then scan
// the active sets round-robin from just past the last admitted one,
// picking the highest-priority admissible set (round-robin order breaks
// ties), and move up to claimBatch of its morsels into the private
// deque. Returns whether anything was claimed.
func (w *worker) claim() bool {
	p := w.pool
	p.mu.Lock()
	w.dropSlot()
	var best *taskSet
	bestAt := -1
	for i := 0; i < len(p.sets); i++ {
		at := (p.rr + 1 + i) % len(p.sets)
		s := p.sets[at]
		if s.next >= s.n || s.running >= s.limit {
			continue
		}
		if s.dead() {
			// Lazily reap sets cancelled via context timeout without an
			// explicit waiter-side cancel yet.
			drop := s.n - s.next
			s.next = s.n
			s.pending -= drop
			p.queued.Add(int64(-drop))
			if s.pending == 0 {
				s.done <- struct{}{}
			}
			p.removeSet(s)
			i--
			if len(p.sets) == 0 {
				break
			}
			continue
		}
		if best == nil || s.q.prio > best.q.prio ||
			(s.q.prio == best.q.prio && s.q.memBytes.Load() < best.q.memBytes.Load()) {
			best, bestAt = s, at
		}
	}
	if best == nil {
		p.mu.Unlock()
		return false
	}
	s := best
	p.rr = bestAt
	if !s.started {
		s.started = true
		s.wait = time.Since(s.enqueued)
	}
	take := claimBatch
	if rest := s.n - s.next; take > rest {
		take = rest
	}
	lo := s.next
	s.next += take
	s.running++
	w.slot, w.slotGen = s, s.gen
	if s.next >= s.n {
		p.removeSet(s)
	}
	// Push later morsels first so LIFO pops run them in ascending order.
	for i := lo + take - 1; i > lo; i-- {
		w.deq.pushBottom(task{set: s, idx: i})
	}
	if take > 1 && p.idle > 0 {
		p.cond.Signal() // surplus in our deque: a thief can help
	}
	p.mu.Unlock()
	w.exec(task{set: s, idx: lo})
	return true
}

// steal takes the oldest task from a sibling's deque.
func (p *Pool) steal(w *worker) (task, bool) {
	p.mu.Lock()
	victims := p.workers
	p.mu.Unlock()
	for _, v := range victims {
		if v == w || v.deq.size.Load() == 0 {
			continue
		}
		if t, ok := v.deq.stealTop(); ok {
			return t, true
		}
	}
	return task{}, false
}

// exec runs (or, for a dead set, discards) one morsel.
func (w *worker) exec(t task) {
	p := w.pool
	p.queued.Add(-1)
	if !t.set.dead() {
		p.busy.Add(1)
		t.set.fn(t.idx)
		p.busy.Add(-1)
	}
	p.mu.Lock()
	p.finish(t.set)
	p.mu.Unlock()
}

// park blocks until new work may exist. The admissibility re-check
// under the mutex closes the missed-wakeup window between a failed
// claim scan and going idle.
func (p *Pool) park(w *worker) {
	p.mu.Lock()
	if w.quit.Load() || p.claimable() {
		p.mu.Unlock()
		return
	}
	p.parks.Add(1)
	p.idle++
	p.cond.Wait()
	p.idle--
	p.mu.Unlock()
}

// claimable reports whether any admissible morsel or stealable task
// exists. Caller holds p.mu.
func (p *Pool) claimable() bool {
	for _, s := range p.sets {
		if s.next < s.n && s.running < s.limit && !s.cancelled.Load() {
			return true
		}
	}
	for _, v := range p.workers {
		if v.deq.size.Load() > 0 {
			return true
		}
	}
	return false
}
