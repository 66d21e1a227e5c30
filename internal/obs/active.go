package obs

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the in-flight telemetry of one executing query: an atomic
// rows-processed counter fed by the morsel executor, plus worker
// saturation gauges (how many workers are busy right now, the peak so
// far, and the largest row count any single worker handled — the
// balance signal the workers decision audit compares against).
//
// Every method is safe on a nil receiver, so operators thread a
// *Progress unconditionally and a disabled database pays one branch per
// event and allocates nothing.
type Progress struct {
	id            uint64 // the query's registration id
	rows          atomic.Int64
	busyWorkers   atomic.Int32
	peakWorkers   atomic.Int32
	maxWorkerRows atomic.Int64
	// Scheduler costs folded per operator run: morsels of this query
	// stolen across pool workers, and admission latency waiting for a
	// first worker.
	schedSteals    atomic.Int64
	schedWaitNanos atomic.Int64
}

// Label returns the query's pprof label value ("q<id>"), formatted when
// a parallel operator asks for it, so a query that runs none never
// builds it. Safe on a nil receiver (returns "").
func (p *Progress) Label() string {
	if p == nil {
		return ""
	}
	return "q" + strconv.FormatUint(p.id, 10)
}

// AddRows advances the rows-processed counter. Safe on a nil receiver.
func (p *Progress) AddRows(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.rows.Add(n)
}

// Rows returns rows processed so far. Safe on a nil receiver.
func (p *Progress) Rows() int64 {
	if p == nil {
		return 0
	}
	return p.rows.Load()
}

// WorkerStart marks one worker goroutine busy and raises the peak gauge.
// Safe on a nil receiver.
func (p *Progress) WorkerStart() {
	if p == nil {
		return
	}
	busy := p.busyWorkers.Add(1)
	for {
		peak := p.peakWorkers.Load()
		if busy <= peak || p.peakWorkers.CompareAndSwap(peak, busy) {
			return
		}
	}
}

// WorkerDone marks one worker idle and folds its per-worker row total
// into the max-rows-per-worker gauge. Safe on a nil receiver.
func (p *Progress) WorkerDone(rows int64) {
	if p == nil {
		return
	}
	p.busyWorkers.Add(-1)
	for {
		cur := p.maxWorkerRows.Load()
		if rows <= cur || p.maxWorkerRows.CompareAndSwap(cur, rows) {
			return
		}
	}
}

// BusyWorkers returns the number of currently busy workers. Safe on a
// nil receiver.
func (p *Progress) BusyWorkers() int {
	if p == nil {
		return 0
	}
	return int(p.busyWorkers.Load())
}

// PeakWorkers returns the peak concurrent worker count. Safe on a nil
// receiver.
func (p *Progress) PeakWorkers() int {
	if p == nil {
		return 0
	}
	return int(p.peakWorkers.Load())
}

// MaxWorkerRows returns the largest row count any single worker
// processed so far. Safe on a nil receiver.
func (p *Progress) MaxWorkerRows() int64 {
	if p == nil {
		return 0
	}
	return p.maxWorkerRows.Load()
}

// AddSched folds one operator run's scheduler costs — stolen morsels
// and admission wait — into the query's gauges. Safe on a nil receiver.
func (p *Progress) AddSched(steals int64, wait time.Duration) {
	if p == nil {
		return
	}
	if steals != 0 {
		p.schedSteals.Add(steals)
	}
	if wait != 0 {
		p.schedWaitNanos.Add(int64(wait))
	}
}

// SchedSteals returns the query's stolen-morsel total. Safe on a nil
// receiver.
func (p *Progress) SchedSteals() int64 {
	if p == nil {
		return 0
	}
	return p.schedSteals.Load()
}

// SchedWait returns the query's accumulated admission latency. Safe on
// a nil receiver.
func (p *Progress) SchedWait() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.schedWaitNanos.Load())
}

// Query phases for ActiveQuery.SetPhase, in pipeline order.
const (
	PhasePlan int32 = iota
	PhaseSelect
	PhaseJoin
	PhaseGroup
	PhaseProject
	PhaseDistinct
	PhaseOrder
)

var phaseNames = [...]string{"plan", "select", "join", "group", "project", "distinct", "order"}

// ActiveQuery is one in-flight query in the live registry: identity,
// the query (rendered as text only when a snapshot reads it), start time,
// current phase, and live Progress. All methods are safe on a nil
// receiver (the disabled state).
type ActiveQuery struct {
	id    uint64
	query fmt.Stringer
	start time.Time
	phase atomic.Int32
	prog  Progress
}

// ID returns the query's registration id. Safe on a nil receiver.
func (q *ActiveQuery) ID() uint64 {
	if q == nil {
		return 0
	}
	return q.id
}

// Progress returns the query's live progress, nil on a nil receiver —
// so a disabled database threads a nil *Progress all the way down.
func (q *ActiveQuery) Progress() *Progress {
	if q == nil {
		return nil
	}
	return &q.prog
}

// SetPhase moves the query to the given pipeline phase. Safe on a nil
// receiver.
func (q *ActiveQuery) SetPhase(phase int32) {
	if q == nil {
		return
	}
	q.phase.Store(phase)
}

// ActiveQueryInfo is a point-in-time copy of one in-flight query, safe
// to retain and serialize.
type ActiveQueryInfo struct {
	ID            uint64        `json:"id"`
	Text          string        `json:"text"`
	Phase         string        `json:"phase"`
	Start         time.Time     `json:"start"`
	Elapsed       time.Duration `json:"elapsed_nanos"`
	Rows          int64         `json:"rows"`
	BusyWorkers   int           `json:"busy_workers"`
	PeakWorkers   int           `json:"peak_workers"`
	MaxWorkerRows int64         `json:"max_worker_rows"`
	SchedSteals   int64         `json:"sched_steals,omitempty"`
	SchedWait     time.Duration `json:"sched_wait_nanos,omitempty"`
}

// ActiveSet is the live query registry: every executing query registers
// on start and deregisters on completion; Snapshot lists what is running
// right now. Registration reuses pooled ActiveQuery records, so the
// steady-state enabled cost is one mutex-guarded map insert per query.
// All methods are safe on a nil receiver.
type ActiveSet struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]*ActiveQuery
	pool sync.Pool
}

// NewActiveSet creates an enabled live registry.
func NewActiveSet() *ActiveSet {
	return &ActiveSet{m: make(map[uint64]*ActiveQuery)}
}

// Register adds an in-flight query and returns its record. The registry
// keeps query itself, not its text: Snapshot renders it, under the lock
// Deregister takes, so query must stay unchanged until Deregister
// returns. Safe on a nil receiver (returns nil, which every ActiveQuery
// method tolerates).
func (s *ActiveSet) Register(query fmt.Stringer) *ActiveQuery {
	if s == nil {
		return nil
	}
	q, _ := s.pool.Get().(*ActiveQuery)
	if q == nil {
		q = &ActiveQuery{}
	}
	s.mu.Lock()
	s.next++
	// Field-wise reset: the record embeds atomics, so a struct assignment
	// would copy them (and trip go vet's copylocks check).
	q.id = s.next
	q.query = query
	q.start = time.Now()
	q.phase.Store(PhasePlan)
	q.prog.id = q.id
	q.prog.rows.Store(0)
	q.prog.busyWorkers.Store(0)
	q.prog.peakWorkers.Store(0)
	q.prog.maxWorkerRows.Store(0)
	q.prog.schedSteals.Store(0)
	q.prog.schedWaitNanos.Store(0)
	s.m[q.id] = q
	s.mu.Unlock()
	return q
}

// Deregister removes a completed query and recycles its record. Safe on
// nil receivers and a nil query.
func (s *ActiveSet) Deregister(q *ActiveQuery) {
	if s == nil || q == nil {
		return
	}
	s.mu.Lock()
	delete(s.m, q.id)
	q.query = nil // the pooled record must not keep the query alive
	s.mu.Unlock()
	s.pool.Put(q)
}

// Snapshot copies every in-flight query, ordered by registration id
// (oldest first), rendering each one's text. Safe on a nil receiver
// (returns nil).
func (s *ActiveSet) Snapshot() []ActiveQueryInfo {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.mu.Lock()
	out := make([]ActiveQueryInfo, 0, len(s.m))
	for _, q := range s.m {
		out = append(out, ActiveQueryInfo{
			ID:            q.id,
			Text:          q.query.String(),
			Phase:         phaseNames[q.phase.Load()],
			Start:         q.start,
			Elapsed:       now.Sub(q.start),
			Rows:          q.prog.Rows(),
			BusyWorkers:   q.prog.BusyWorkers(),
			PeakWorkers:   q.prog.PeakWorkers(),
			MaxWorkerRows: q.prog.MaxWorkerRows(),
			SchedSteals:   q.prog.SchedSteals(),
			SchedWait:     q.prog.SchedWait(),
		})
	}
	s.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
