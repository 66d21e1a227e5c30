// Package mmdb is a main-memory relational database engine reproducing
// the MM-DBMS architecture of Lehman & Carey, "Query Processing in Main
// Memory Database Management Systems" (SIGMOD 1986).
//
// Relations live entirely in memory, broken into partitions (the unit of
// recovery and locking). Tuples are referred to by stable pointers;
// indices hold tuple pointers rather than key values; foreign keys may be
// declared as tuple-pointer fields, enabling precomputed joins; query
// results are temporary lists of tuple pointers plus a result descriptor —
// data is copied only when a result is finally materialized.
//
// The query layer picks among the paper's operator repertoire with the
// simple preference ordering its conclusions lay out — selection by hash
// lookup, tree lookup, range scan, or sequential scan; precomputed, Tree
// Merge, Tree, and Hash joins; duplicate elimination by hashing or
// sort-scan. (The Nested Loops and Sort Merge joins the ordering never
// prefers run only in the reproduction's experiments.)
//
// Durability follows Figure 2: a stable log buffer written before every
// update, an active log device folding committed changes into a
// change-accumulation log, a disk copy of the database maintained lazily,
// and two-phase restart (working set first, background reload after).
package mmdb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/lock"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/recovery"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
)

// IndexKind selects one of the eight studied index structures.
type IndexKind = index.Kind

// The available index structures. TTree and ModLinearHash are the
// MM-DBMS's two general-purpose dynamic structures (§2.2); the others are
// provided for completeness and benchmarking.
const (
	Array         = index.KindArray
	AVLTree       = index.KindAVL
	BTree         = index.KindBTree
	TTree         = index.KindTTree
	ChainedHash   = index.KindChainedHash
	Extendible    = index.KindExtendible
	LinearHash    = index.KindLinearHash
	ModLinearHash = index.KindModLinearHash
)

// Options configures a Database: durability, partition sizing,
// parallelism, the memory budget and telemetry. The planner's crossovers
// are constants (plan.Default*); a query's join method, join order, sort
// substrate and degree of parallelism can be pinned per query with the
// Query hints.
type Options struct {
	// Dir is the disk-copy directory. Empty disables durability: no log,
	// no recovery, maximum speed.
	Dir string
	// DeviceInterval is the active log device's propagation period; zero
	// keeps the device off until StartDevice is called.
	DeviceInterval time.Duration
	// Partition sizing; zero values use the defaults ("one or two disk
	// tracks", §2.1).
	SlotsPerPartition int
	HeapPerPartition  int
	// DisableMetrics turns the engine metrics registry off. Disabled,
	// every instrumentation point degenerates to a nil check — no atomics,
	// no allocations (see BenchmarkObsOverhead) — the moral equivalent of
	// the paper compiling its §3.1 counters out for the timed runs.
	DisableMetrics bool
	// Parallelism is the default degree of parallelism for query
	// operators with a partition-parallel implementation (sequential
	// scans, join pipelines, the radix join, GROUP BY, DISTINCT, top-k).
	// 0 means GOMAXPROCS; 1 runs every operator serially. The planner
	// additionally caps the degree so each worker gets at least
	// plan.MinRowsPerWorker rows, so small tables always run serial.
	// Query.Parallel overrides it per query.
	Parallelism int
	// SlowQueryThreshold enables the slow-query log: any query whose wall
	// time reaches the threshold is captured — text, wall time, rows, and
	// the full execution trace with the plan-vs-actual decision audit —
	// into a bounded in-memory ring readable via Database.SlowQueries and
	// the /debug/slow handler. Zero keeps the log off (and keeps Run free
	// of trace-building overhead).
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize bounds the slow-query ring; 0 means
	// obs.DefaultSlowLogSize entries. Oldest entries are overwritten.
	SlowQueryLogSize int
	// MemoryBudget, in bytes, caps the engine-wide operator scratch
	// (radix join build tables, aggregation tables) through the
	// internal/mem grant manager. Every query opens a reservation with a
	// fair share of the budget, every budgeted operator grants its
	// tables before building them, and the radix join degrades
	// gracefully instead of thrashing when a grant is refused: it
	// reverses build/probe roles when the forecast build side turns out
	// larger after partitioning, recursively re-splits partitions whose
	// table would overflow the grant, and only overcommits (recorded in
	// mmdb_mem_forced_total) for partitions that cannot shrink — e.g.
	// all-equal join keys. The radix plan itself is also clamped so the
	// scatter's staging fits the budget (plan.ClampRadixBits). 0, the
	// default, disables budgeting entirely: the pre-budget execution
	// paths run byte-identical.
	MemoryBudget int64
}

// Database is a main-memory database: a set of tables, a partition-level
// lock manager, and (optionally) the recovery machinery.
type Database struct {
	mu     sync.RWMutex
	opts   Options
	ids    *storage.IDGen
	tables map[string]*Table
	locks  *lock.Manager
	log    *recovery.Manager
	txns   *txn.Manager
	device *recovery.Device
	obs    *obs.Registry  // nil when Options.DisableMetrics
	active *obs.ActiveSet // nil when Options.DisableMetrics
	slow   *obs.SlowLog   // nil unless Options.SlowQueryThreshold > 0
	mem    *mem.Manager   // nil when Options.MemoryBudget == 0
	stmts  stmtCache      // Exec's built statements, by shape
	tune   tuning         // the zero value outside tests
}

// tuning overrides the planner's crossovers and the snapshot-scan
// decision. Callers cannot set it: every field's zero value is the
// engine's behaviour, and only tests move a crossover to reach a path
// at test-sized inputs or pin a query to locked scans.
type tuning struct {
	radix       plan.RadixConfig
	sort        plan.SortConfig
	agg         plan.AggConfig
	noSnapshots bool // every query S-locks what it reads for its whole run
}

// Open creates a database. With Options.Dir set, a previously saved disk
// copy can be loaded with Recover after the schema is declared.
func Open(opts Options) (*Database, error) {
	db := &Database{
		opts:   opts,
		ids:    storage.NewIDGen(),
		tables: make(map[string]*Table),
		locks:  lock.NewManager(),
	}
	if !opts.DisableMetrics {
		db.obs = obs.NewRegistry()
		db.locks.SetObserver(db.obs)
		db.active = obs.NewActiveSet()
		db.obs.SetSchedSource(func() obs.SchedStats {
			s := sched.Shared().SnapshotStats()
			return obs.SchedStats{
				Workers:    s.Workers,
				QueueDepth: s.QueueDepth,
				Busy:       s.Busy,
				Steals:     s.Steals,
				Parks:      s.Parks,
			}
		})
	}
	if opts.SlowQueryThreshold > 0 {
		db.slow = obs.NewSlowLog(opts.SlowQueryThreshold, opts.SlowQueryLogSize)
	}
	db.obs.SetTableSource(db.tableStats)
	db.mem = mem.NewManager(opts.MemoryBudget)
	if db.obs != nil && db.mem != nil {
		gm := db.mem
		db.obs.SetMemSource(func() obs.MemStats {
			s := gm.Snapshot()
			return obs.MemStats{
				Total:        s.Total,
				Granted:      s.Granted,
				Waiting:      s.Waiting,
				Forced:       s.Forced,
				Reversals:    s.Reversals,
				Repartitions: s.Repartitions,
			}
		})
	}
	if opts.Dir != "" {
		log, err := recovery.NewManager(opts.Dir)
		if err != nil {
			return nil, err
		}
		db.log = log
		if db.obs != nil {
			log.SetObserver(db.obs)
		}
		if opts.DeviceInterval > 0 {
			db.device = log.StartDevice(opts.DeviceInterval)
		}
	}
	db.txns = txn.NewManager(db.locks, db.log)
	if db.obs != nil {
		db.txns.Obs = db.obs
	}
	return db, nil
}

// Close stops the background log device, propagating any remaining
// committed records to the disk copy, and closes the disk copy. The shared
// morsel scheduler is left running for the process's other databases.
func (db *Database) Close() error {
	var err error
	if db.device != nil {
		err = db.device.Stop()
		db.device = nil
	}
	if db.log != nil {
		if err == nil {
			err = db.log.PropagateOnce()
		}
		if cerr := db.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Checkpoint writes every table's partitions to the disk copy. It is safe
// beside running transactions and the background log device: each table
// is written under its shared relation lock, one table at a time, so
// writers of that table wait for its images and no others.
func (db *Database) Checkpoint() error {
	if db.log == nil {
		return fmt.Errorf("mmdb: database opened without durability")
	}
	db.mu.RLock()
	rels := make([]*storage.Relation, 0, len(db.tables))
	for _, t := range db.tables {
		rels = append(rels, t.rel)
	}
	db.mu.RUnlock()
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name() < rels[j].Name() })
	for _, rel := range rels {
		if err := db.checkpointRelation(rel); err != nil {
			return err
		}
	}
	return nil
}

func (db *Database) checkpointRelation(rel *storage.Relation) error {
	reader := db.txns.BeginUntracked()
	defer reader.Abort() // releases the shared lock
	if err := reader.LockRelationShared(rel); err != nil {
		return err
	}
	return db.log.Checkpoint(rel)
}

// CreateTable declares a table. Every relation must be reachable through
// an index (§2.1), so a primary index on primaryColumn is created
// immediately; kind must be an order-preserving structure for ordered
// data or a hash structure for unordered data.
func (db *Database) CreateTable(name string, fields []Field, primaryColumn string, kind IndexKind) (*Table, error) {
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("mmdb: table %q exists", name)
	}
	rel, err := storage.NewRelation(name, schema, storage.Config{
		SlotsPerPartition: db.opts.SlotsPerPartition,
		HeapPerPartition:  db.opts.HeapPerPartition,
	}, db.ids)
	if err != nil {
		return nil, err
	}
	t := &Table{db: db, rel: rel, byField: make([]fieldIndices, schema.Arity()), sel: exec.SingleDescriptor(name, schema)}
	if _, err := t.createIndexLocked("primary", primaryColumn, kind, true); err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

// Table returns a declared table.
func (db *Database) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Tables lists table names in sorted order.
func (db *Database) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Recover rebuilds all declared tables from the disk copy and the
// change-accumulation log, then rebuilds their indices. It implements the
// paper's two-phase restart: workingSet partitions load first (pass nil to
// load everything eagerly); the remainder loads before Recover returns —
// use RecoverAsync for true background reload.
func (db *Database) Recover(workingSet []PartitionKey) error {
	r, err := db.beginRestart(workingSet)
	if err != nil {
		return err
	}
	if err := r.LoadRemaining(); err != nil {
		return err
	}
	if err := r.Finish(); err != nil {
		return err
	}
	db.rebuildIndices()
	return nil
}

// PartitionKey names one partition for working-set recovery.
type PartitionKey = recovery.PartKey

// RecoverAsync loads the working set synchronously, then completes the
// reload in the background; the returned channel yields the final error.
// The database may serve transactions against working-set partitions while
// the background load runs, at the caller's discretion (tuple-pointer
// fields resolve only after the full load).
func (db *Database) RecoverAsync(workingSet []PartitionKey) (<-chan error, error) {
	r, err := db.beginRestart(workingSet)
	if err != nil {
		return nil, err
	}
	out := make(chan error, 1)
	go func() {
		err := <-r.LoadRemainingAsync()
		if err == nil {
			db.rebuildIndices()
		}
		out <- err
	}()
	return out, nil
}

func (db *Database) beginRestart(workingSet []PartitionKey) (*recovery.Restart, error) {
	if db.log == nil {
		return nil, fmt.Errorf("mmdb: database opened without durability")
	}
	db.mu.RLock()
	rels := make([]*storage.Relation, 0, len(db.tables))
	for _, t := range db.tables {
		rels = append(rels, t.rel)
	}
	db.mu.RUnlock()
	r := db.log.NewRestart(rels...)
	if err := r.LoadWorkingSet(workingSet); err != nil {
		return nil, err
	}
	return r, nil
}

func (db *Database) rebuildIndices() {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		t.rebuildIndices()
	}
}

// Begin starts a transaction: deferred updates under partition-level
// two-phase locking (§2.4).
func (db *Database) Begin() *Txn {
	return &Txn{db: db, inner: db.txns.Begin()}
}
