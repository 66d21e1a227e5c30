package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/agg"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/lock"
	"repro/internal/mem"
	"repro/internal/meter"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/radix"
	"repro/internal/recovery"
	"repro/internal/sched"
	"repro/internal/sortkey"
	"repro/internal/storage"
	"repro/internal/tupleindex"
	"repro/internal/txn"
)

// The layer replays measure each engine package from outside: stopwatch
// spans around calls into its exported functions, over the same generated
// data the workloads use. They are the per-layer half of the benchmark;
// nothing here touches the Database.

// fact column positions.
const (
	cID = iota
	cP
	cD1
	cD2
	cD3
	cGLo
	cGHi
	cV
)

// paperRows is the cardinality of the paper's own experiments, below every
// planner crossover: the serial exec kernels are measured here.
const paperRows = 30000

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// medianTime is the median wall time of reps calls of f.
func medianTime(reps int, f func()) time.Duration {
	lat := make([]time.Duration, reps)
	for i := range lat {
		lat[i] = timeIt(f)
	}
	return durMedian(lat)
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func micros(d time.Duration) float64       { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64       { return float64(d.Nanoseconds()) / 1e6 }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// layerRun carries the fixtures the replays share and collects their
// metrics.
type layerRun struct {
	d       *Data
	sc      *scratch
	workers int
	rng     *rand.Rand
	put     func(name string, v float64, unit string)

	ids                   *storage.IDGen
	fact, peer, zb        *storage.Relation
	factT, peerT, zbT     []*storage.Tuple
	dims                  [3]*storage.Relation
	factList, paperList   *storage.TempList // single-source lists over fact
	paperFact, paperPeerT []*storage.Tuple
}

func intSchema(names ...string) *storage.Schema {
	f := make([]storage.FieldDef, len(names))
	for i, n := range names {
		f[i] = storage.FieldDef{Name: n, Type: storage.Int}
	}
	return storage.MustSchema(f...)
}

func (l *layerRun) relation(name string, schema *storage.Schema, n int, row func(i int, buf []storage.Value) []storage.Value) (*storage.Relation, []*storage.Tuple, error) {
	rel, err := storage.NewRelation(name, schema, storage.Config{}, l.ids)
	if err != nil {
		return nil, nil, err
	}
	tuples := make([]*storage.Tuple, n)
	buf := make([]storage.Value, 0, 8)
	for i := range tuples {
		if tuples[i], err = rel.Insert(row(i, buf[:0])); err != nil {
			return nil, nil, fmt.Errorf("replay relation %s row %d: %w", name, i, err)
		}
	}
	return rel, tuples, nil
}

func pairRow(col []int64) func(int, []storage.Value) []storage.Value {
	return func(i int, buf []storage.Value) []storage.Value {
		return append(buf, storage.IntValue(int64(i)), storage.IntValue(col[i]))
	}
}

func factList(tuples []*storage.Tuple) *storage.TempList {
	desc := exec.SingleDescriptor("fact", intSchema(factCols...))
	list := storage.MustTempListHint(desc, len(tuples))
	list.AppendBatch(tuples)
	return list
}

// runLayers runs every replay. The order matters only where one replay's
// fixture is another's input.
func runLayers(d *Data, sc *scratch, put func(string, float64, string)) error {
	l := &layerRun{d: d, sc: sc, workers: runtime.GOMAXPROCS(0), rng: subRng(d.Seed, 50), put: put, ids: storage.NewIDGen()}
	for _, step := range []func() error{
		l.storage, l.index, l.lockTxn, l.recovery, l.exec, l.radix, l.parallel, l.agg, l.sortkey, l.sched, l.mem, l.plan,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (l *layerRun) storage() error {
	d := l.d
	var err error
	before := heapAlloc()
	took := timeIt(func() {
		l.fact, l.factT, err = l.relation("fact", intSchema(factCols...), d.Fact, func(i int, buf []storage.Value) []storage.Value {
			for _, v := range d.factRow(i) {
				buf = append(buf, storage.IntValue(v))
			}
			return buf
		})
	})
	if err != nil {
		return err
	}
	l.put("storage.insert_us_per_row", micros(took)/float64(d.Fact), "us")
	l.put("storage.bytes_per_tuple", float64(heapAlloc()-before)/float64(d.Fact), "B")
	if l.peer, l.peerT, err = l.relation("peer", intSchema("id", "a"), d.Peer, pairRow(d.PeerA)); err != nil {
		return err
	}
	if l.zb, l.zbT, err = l.relation("zbuild", intSchema("id", "k"), d.ZBuild, pairRow(d.ZK)); err != nil {
		return err
	}
	for i, col := range [][]int64{d.Dim1A, d.Dim2A, d.Dim3A} {
		if l.dims[i], _, err = l.relation(fmt.Sprintf("dim%d", i+1), intSchema("id", "a"), len(col), pairRow(col)); err != nil {
			return err
		}
	}

	rows := 0
	scan := medianTime(5, func() {
		rows = 0
		l.fact.ScanPhysical(func(*storage.Tuple) bool { rows++; return true })
	})
	if rows != d.Fact {
		return fmt.Errorf("storage replay: scan saw %d rows, want %d", rows, d.Fact)
	}
	l.put("storage.scan_ns_per_row", nsPer(scan, rows), "ns")

	desc := exec.SingleDescriptor("fact", l.fact.Schema())
	appendTime := medianTime(5, func() {
		list := storage.MustTempListHint(desc, len(l.factT))
		for _, tp := range l.factT {
			list.AppendOne(tp)
		}
		list.Release()
	})
	l.put("storage.append_ns_per_row", nsPer(appendTime, d.Fact), "ns")

	l.factList = factList(l.factT)
	n := paperRows
	if n > d.Fact {
		n = d.Fact
	}
	l.paperFact = l.factT[:n]
	l.paperList = factList(l.paperFact)
	m := paperRows
	if m > d.Peer {
		m = d.Peer
	}
	l.paperPeerT = l.peerT[:m]

	out := make([]storage.Value, 1024)
	gather := medianTime(5, func() {
		for lo := 0; lo < d.Fact; lo += len(out) {
			hi := lo + len(out)
			if hi > d.Fact {
				hi = d.Fact
			}
			l.factList.GatherColumn(cV, lo, hi, out[:hi-lo])
		}
	})
	l.put("storage.gather_ns_per_value", nsPer(gather, d.Fact), "ns")

	// The commit-time cost of snapshot scans: after one row changes, the
	// republication clones that row's partition and reuses the rest.
	l.peer.PublishSnapshot()
	var publish []time.Duration
	for i := 0; i < 200; i++ {
		tp := l.peerT[l.rng.Intn(len(l.peerT))]
		if err := l.peer.Update(tp, 1, storage.IntValue(int64(i))); err != nil {
			return fmt.Errorf("storage replay: %w", err)
		}
		publish = append(publish, timeIt(func() { l.peer.PublishSnapshot() }))
	}
	l.put("storage.snapshot_publish_us", micros(durMedian(publish)), "us")
	return nil
}

func (l *layerRun) index() error {
	n := len(l.factT)
	var m meter.Counters
	tree := tupleindex.NewTTree(tupleindex.Options{Field: cID, Unique: true, Capacity: n, Meter: &m})
	build := timeIt(func() {
		for _, tp := range l.factT {
			tree.Insert(tp)
		}
	})
	l.put("index.ttree_insert_ns", nsPer(build, n), "ns")
	st := tree.Stats()
	l.put("index.bytes_per_entry", float64(index.ModernModel.Bytes(st))/float64(st.Entries), "B")

	const probes = 100000
	keys := make([]storage.Value, probes)
	for i := range keys {
		keys[i] = storage.IntValue(int64(l.rng.Intn(n)))
	}
	m = meter.Counters{}
	misses := 0
	search := timeIt(func() {
		for _, k := range keys {
			if _, ok := tree.Search(tupleindex.PosFor(k, cID)); !ok {
				misses++
			}
		}
	})
	l.put("index.ttree_search_ns", nsPer(search, probes), "ns")
	l.put("index.ttree_nodes_per_search", float64(m.NodesVisited)/probes, "count")

	const ranges = 2000
	got := 0
	rng := timeIt(func() {
		for i := 0; i < ranges; i++ {
			lo := keys[i].Int()
			if lo > int64(n-rangeLen) {
				lo = int64(n - rangeLen)
			}
			tree.Range(tupleindex.PosFor(storage.IntValue(lo), cID), tupleindex.PosFor(storage.IntValue(lo+rangeLen-1), cID),
				func(*storage.Tuple) bool { got++; return true })
		}
	})
	if got != ranges*rangeLen {
		return fmt.Errorf("index replay: ranges returned %d entries, want %d", got, ranges*rangeLen)
	}
	l.put("index.ttree_range100_us", micros(rng)/ranges, "us")

	victims := l.rng.Perm(n)[:n/10]
	del := timeIt(func() {
		for _, i := range victims {
			if !tree.Delete(l.factT[i]) {
				misses++
			}
		}
	})
	l.put("index.ttree_delete_ns", nsPer(del, len(victims)), "ns")

	hash := tupleindex.NewChainHash(tupleindex.Options{Field: cID, Unique: true, Capacity: n})
	for _, tp := range l.factT {
		hash.Insert(tp)
	}
	hsearch := timeIt(func() {
		for _, k := range keys {
			k := k
			if _, ok := hash.SearchKey(storage.Hash(k), func(t *storage.Tuple) bool { return storage.Equal(t.Field(cID), k) }); !ok {
				misses++
			}
		}
	})
	l.put("index.chainhash_search_ns", nsPer(hsearch, probes), "ns")
	if misses != 0 {
		return fmt.Errorf("index replay: %d lookups of present keys missed", misses)
	}
	return nil
}

func (l *layerRun) lockTxn() error {
	tm := txn.NewManager(lock.NewManager(), nil)
	var err error
	slock := medianTime(30, func() {
		tx := tm.Begin()
		if e := tx.LockRelationShared(l.fact); e != nil {
			err = e
		}
		tx.Abort()
	})
	if err != nil {
		return fmt.Errorf("lock replay: %w", err)
	}
	l.put("lock.rel_slock_us", micros(slock), "us")
	// A reader S-locks the relation and every one of its partitions.
	l.put("lock.locks_per_query", float64(len(l.fact.Partitions())+1), "count")

	commit := medianTime(2000, func() {
		tx := tm.Begin()
		for i := 0; i < updatesPerTxn; i++ {
			tp := l.factT[l.rng.Intn(len(l.factT))]
			if e := tx.Update(l.fact, tp, cV, storage.IntValue(l.rng.Int63n(1<<40))); e != nil {
				err = e
				return
			}
		}
		if _, e := tx.Commit(); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("txn replay: %w", err)
	}
	l.put("txn.update_commit_us", micros(commit), "us")
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func (l *layerRun) recovery() error {
	dir, err := l.sc.dir()
	if err != nil {
		return err
	}
	m, err := recovery.NewManager(dir)
	if err != nil {
		return fmt.Errorf("recovery replay: %w", err)
	}
	ckpt := timeIt(func() { err = m.Checkpoint(l.fact) })
	if err != nil {
		return fmt.Errorf("recovery replay: checkpoint: %w", err)
	}
	l.put("recovery.checkpoint_s", ckpt.Seconds(), "s")
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.put("recovery.disk_bytes_per_user_byte", float64(disk)/float64(l.d.rawBytes(tFact)), "ratio")

	const commits = 2000
	words := 0
	lat := make([]time.Duration, commits)
	for c := range lat {
		id := uint64(c + 1)
		lat[c] = timeIt(func() {
			for i := 0; i < updatesPerTxn; i++ {
				tp := l.factT[l.rng.Intn(len(l.factT))]
				rec := m.Append(id, recovery.Record{Op: recovery.OpUpdate, Rel: "fact", Part: tp.Partition().ID(), Tuple: tp.ID(),
					Field: cV, Vals: []storage.ValueImage{storage.ImageOf(storage.IntValue(int64(c)))}})
				words += rec.Words()
			}
			m.Commit(id)
		})
	}
	l.put("recovery.append_commit_us", micros(durMedian(lat)), "us")
	l.put("recovery.log_words_per_commit", float64(words)/commits, "words")
	prop := timeIt(func() { err = m.PropagateOnce() })
	if err != nil {
		return fmt.Errorf("recovery replay: propagate: %w", err)
	}
	l.put("recovery.propagate_ms", millis(prop), "ms")

	fresh, err := storage.NewRelation("fact", l.fact.Schema(), storage.Config{}, storage.NewIDGen())
	if err != nil {
		return err
	}
	restart := timeIt(func() {
		r := m.NewRestart(fresh)
		if err = r.LoadRemaining(); err == nil {
			err = r.Finish()
		}
	})
	if err != nil {
		return fmt.Errorf("recovery replay: restart: %w", err)
	}
	if fresh.Cardinality() != l.fact.Cardinality() {
		return fmt.Errorf("recovery replay: restart loaded %d rows, want %d", fresh.Cardinality(), l.fact.Cardinality())
	}
	l.put("recovery.restart_us_per_partition", micros(restart)/float64(len(fresh.Partitions())), "us")
	return nil
}

// dimStages builds the three star-join stages over the dimension relations.
func (l *layerRun) dimStages(m *meter.Counters) []exec.StageSpec {
	stages := make([]exec.StageSpec, 3)
	for i, rel := range l.dims {
		table := exec.BuildStageTable(parallel.RelationSource{Rel: rel}, 0, 0, m)
		stages[i] = exec.StageSpec{Table: table, BuildField: 0, BuildSlot: i + 1, ProbeSlot: 0, ProbeField: cD1 + i}
	}
	return stages
}

var starDesc = storage.Descriptor{Sources: []string{"fact", "dim1", "dim2", "dim3"}}

func (l *layerRun) exec() error {
	n := len(l.paperFact)
	var m meter.Counters
	schema := l.fact.Schema()
	src := parallel.SliceSource(l.paperFact)
	pred := func(tp *storage.Tuple) bool { return tp.Field(cGLo).Int() == scanFilterKey }

	scan := medianTime(15, func() {
		exec.SelectScan(src, pred, exec.SelectSpec{RelName: "fact", Schema: schema, Meter: &m}).Release()
	})
	l.put("exec.select_scan_ns_per_row", nsPer(scan, n), "ns")

	rows := 0
	spec := exec.JoinSpec{OuterName: "fact", InnerName: "peer", OuterField: cID, InnerField: 0, Meter: &m, RowsOut: &rows}
	join := medianTime(9, func() {
		exec.HashJoin(src, parallel.SliceSource(l.paperPeerT), spec).Release()
	})
	if want := min(n, len(l.paperPeerT)); rows != want {
		return fmt.Errorf("exec replay: hash join emitted %d rows, want %d", rows, want)
	}
	l.put("exec.hashjoin_ns_per_row", nsPer(join, n), "ns")

	pipe := exec.NewPipeline(exec.PipelineSpec{Slots: 4, DriverSlot: 0, Stages: l.dimStages(&m), Discard: true, Meter: &m})
	pipeline := medianTime(9, func() {
		pipe.Reset(nil)
		for lo := 0; lo < n; lo += storage.BatchSize {
			hi := lo + storage.BatchSize
			if hi > n {
				hi = n
			}
			pipe.Feed(l.paperFact[lo:hi])
		}
		pipe.Flush()
	})
	emitted := pipe.Emitted()
	pipe.Release()
	if emitted != n {
		return fmt.Errorf("exec replay: pipeline emitted %d rows, want %d", emitted, n)
	}
	l.put("exec.pipeline_ns_per_row", nsPer(pipeline, n), "ns")

	keys := []exec.OrderKey{{Col: cV}}
	order := medianTime(9, func() { exec.OrderRows(l.paperList, keys, plan.SortQuick, &m) })
	l.put("exec.order_ns_per_row", nsPer(order, n), "ns")
	topk := medianTime(15, func() { exec.TopKRows(l.paperList, keys, topK, &m) })
	l.put("exec.topk_ns_per_row", nsPer(topk, n), "ns")

	d1 := storage.MustTempListHint(storage.Descriptor{Sources: []string{"fact"}, Cols: []storage.ColRef{{Source: 0, Field: cD1, Name: "d1"}}}, n)
	d1.AppendBatch(l.paperFact)
	project := medianTime(9, func() { exec.ProjectHash(d1, &m).Release() })
	l.put("exec.project_hash_ns_per_row", nsPer(project, n), "ns")
	return nil
}

// hashEntries fills e with (hash of field, tuple) for the tuples.
func hashEntries(e []radix.TupleEntry, tuples []*storage.Tuple, field int) []radix.TupleEntry {
	e = e[:0]
	for _, tp := range tuples {
		e = append(e, radix.TupleEntry{H: storage.Hash(tp.Field(field)), P: tp})
	}
	return e
}

// buildTables builds one flat table per partition, as the radix join does,
// and returns the time spent in Table.Reset and Table.Insert.
func buildTables(parts []radix.TupleEntry, offs []int, tables []*radix.Table) time.Duration {
	return timeIt(func() {
		for p := range tables {
			seg := parts[offs[p]:offs[p+1]]
			tables[p].Reset(len(seg))
			for _, e := range seg {
				tables[p].Insert(e.H, e.P)
			}
		}
	})
}

func (l *layerRun) radix() error {
	var m meter.Counters
	pl := radix.Plan{Bits: plan.ForceRadixBits(len(l.peerT), plan.RadixConfig{})}
	zpl := radix.Plan{Bits: plan.ForceRadixBits(len(l.zbT), plan.RadixConfig{})}
	part := radix.GetTuplePartitioner()
	defer radix.PutTuplePartitioner(part)
	probePart := radix.GetTuplePartitioner()
	defer radix.PutTuplePartitioner(probePart)
	tables := make([]*radix.Table, max(pl.Fanout(), zpl.Fanout()))
	for i := range tables {
		tables[i] = radix.GetTable()
	}
	defer func() {
		for _, t := range tables {
			radix.PutTable(t)
		}
	}()

	// Partition cost on the uniform join's build column. Partition clobbers
	// its input, so the entries are refilled outside the clock.
	entries := make([]radix.TupleEntry, 0, len(l.peerT))
	var lat []time.Duration
	var parts []radix.TupleEntry
	var offs []int
	for i := 0; i < 5; i++ {
		entries = hashEntries(entries, l.peerT, 0)
		lat = append(lat, timeIt(func() { parts, offs = part.Partition(entries, pl, &m) }))
	}
	l.put("radix.partition_ns_per_row", nsPer(durMedian(lat), len(l.peerT)), "ns")

	// Build on peer.id (unique keys), probe with fact.p: the uniform join
	// by hand, one partition pair at a time.
	build := buildTables(parts, offs, tables[:pl.Fanout()])
	l.put("radix.build_ns_per_row_uniform", nsPer(build, len(l.peerT)), "ns")
	probes, poffs := probePart.Partition(hashEntries(nil, l.factT, cP), pl, &m)
	matches := 0
	buf := make(storage.TupleBatch, 0, 16)
	probe := timeIt(func() {
		for p := range tables[:pl.Fanout()] {
			for _, e := range probes[poffs[p]:poffs[p+1]] {
				key := e.P.Field(cP)
				buf = tables[p].ProbeAppend(e.H, func(t *storage.Tuple) bool { return storage.Equal(t.Field(0), key) }, buf[:0])
				matches += len(buf)
			}
		}
	})
	if matches != len(l.factT) {
		return fmt.Errorf("radix replay: probe matched %d rows, want %d", matches, len(l.factT))
	}
	l.put("radix.probe_ns_per_row", nsPer(probe, len(l.factT)), "ns")

	// The same build on zbuild.k: one hot key fills one partition's table
	// with duplicates, and linear probing walks them all on every insert.
	zparts, zoffs := part.Partition(hashEntries(entries, l.zbT, 1), zpl, &m)
	l.put("radix.part_skew_zipf", radix.StatsOf(zpl, zoffs).Skew(), "ratio")
	zbuild := buildTables(zparts, zoffs, tables[:zpl.Fanout()])
	l.put("radix.build_ns_per_row_zipf", nsPer(zbuild, len(l.zbT)), "ns")
	return nil
}

func (l *layerRun) parallel() error {
	n, w := len(l.factT), l.workers
	var m meter.Counters
	sq := sched.NewQuery(sched.Shared(), context.Background(), 0)
	src := parallel.SliceSource(l.factT)
	schema := l.fact.Schema()
	pred := func(tp *storage.Tuple) bool { return tp.Field(cGLo).Int() == scanFilterKey }
	scan := func(workers int) time.Duration {
		return medianTime(7, func() {
			parallel.SelectScan(src, pred, exec.SelectSpec{RelName: "fact", Schema: schema, Meter: &m, Sched: sq}, workers).Release()
		})
	}
	l.put("parallel.scan_ns_per_row_w1", nsPer(scan(1), n), "ns")
	l.put("parallel.scan_ns_per_row_wN", nsPer(scan(w), n), "ns")

	bits := plan.ForceRadixBits(len(l.peerT), plan.RadixConfig{})
	rows := 0
	spec := exec.JoinSpec{OuterName: "fact", InnerName: "peer", OuterField: cP, InnerField: 0, Meter: &m, RowsOut: &rows, Hint: n, Sched: sq}
	join := func(workers int) time.Duration {
		return medianTime(5, func() {
			res, _ := parallel.RadixHashJoin(src, parallel.SliceSource(l.peerT), spec, bits, workers)
			res.Release()
		})
	}
	j1, jN := join(1), join(w)
	if rows != n {
		return fmt.Errorf("parallel replay: radix join emitted %d rows, want %d", rows, n)
	}
	l.put("parallel.radixjoin_ns_per_row_w1", nsPer(j1, n), "ns")
	l.put("parallel.radixjoin_ns_per_row_wN", nsPer(jN, n), "ns")
	l.put("parallel.speedup_radixjoin", float64(j1)/float64(jN), "ratio")

	pspec := exec.PipelineSpec{Slots: 4, DriverSlot: 0, Stages: l.dimStages(&m), Discard: true, Meter: &m, Sched: sq}
	emitted := 0
	pipeline := medianTime(5, func() { _, _, emitted = parallel.RunPipeline(src, pspec, starDesc, 0, w) })
	if emitted != n {
		return fmt.Errorf("parallel replay: pipeline emitted %d rows, want %d", emitted, n)
	}
	l.put("parallel.pipeline_ns_per_row_wN", nsPer(pipeline, n), "ns")

	g := agg.Get()
	defer agg.Put(g)
	groups := 0
	hashagg := medianTime(5, func() {
		groups = parallel.HashAgg(sq, nil, g, l.factList, []int{cGHi}, aggSpecs, nil, w, &m).Groups()
	})
	if groups == 0 {
		return fmt.Errorf("parallel replay: hash aggregation produced no groups")
	}
	l.put("parallel.hashagg_ns_per_row_wN", nsPer(hashagg, n), "ns")
	return nil
}

var aggSpecs = []agg.Spec{{Kind: agg.Count, Col: -1, Name: "COUNT(*)"}, {Kind: agg.Sum, Col: cV, Name: "SUM(v)"}}

func (l *layerRun) agg() error {
	n := len(l.factT)
	g := agg.Get()
	defer agg.Put(g)
	// run times one shape and returns its probe steps per input row.
	run := func(name string, col int, bits []uint) float64 {
		var m meter.Counters
		g.Run(l.factList, []int{col}, aggSpecs, bits, &m) // warm the pooled scratch
		m = meter.Counters{}
		took := medianTime(5, func() { g.Run(l.factList, []int{col}, aggSpecs, bits, &m) })
		l.put(name, nsPer(took, n), "ns")
		return float64(m.AggProbes) / 5 / float64(n)
	}
	l.put("agg.probes_per_row_lo", run("agg.flat_ns_per_row_lo", cGLo, nil), "count")
	l.put("agg.probes_per_row_hi", run("agg.flat_ns_per_row_hi", cGHi, nil), "count")
	_, bits := plan.ChooseAggMethod(n, plan.AggConfig{MinRows: 1})
	run("agg.radix_ns_per_row_hi", cGHi, bits)
	naive := medianTime(3, func() { agg.NaiveMapAgg(l.factList, []int{cGLo}, aggSpecs, nil) })
	l.put("agg.naive_ns_per_row_lo", nsPer(naive, n), "ns")
	return nil
}

func (l *layerRun) sortkey() error {
	n := len(l.factT)
	key := make([]storage.Value, 1)
	buf := make([]byte, 0, 32)
	encode := medianTime(5, func() {
		for _, tp := range l.factT {
			key[0] = tp.Field(cV)
			buf = sortkey.AppendKey(buf[:0], key)
		}
	})
	l.put("sortkey.encode_ns_per_key", nsPer(encode, n), "ns")

	s := sortkey.GetRowSorter()
	defer sortkey.PutRowSorter(s)
	var m meter.Counters
	var lat []time.Duration
	var allocs uint64
	for i := 0; i < 5; i++ {
		e := s.Entries(n)
		for r, tp := range l.factT {
			k, _ := sortkey.Prefix(tp.Field(cV))
			e[r] = sortkey.Entry[int32]{K: k, P: int32(r)}
		}
		before := mallocs()
		// v is a unique integer, so its prefix alone decides the order.
		lat = append(lat, timeIt(func() { s.Sort(e, nil, &m) }))
		allocs = mallocs() - before
		for r := 1; r < n; r++ {
			if e[r-1].K > e[r].K {
				return fmt.Errorf("sortkey replay: entries %d and %d are out of order", r-1, r)
			}
		}
	}
	l.put("sortkey.sort_ns_per_key", nsPer(durMedian(lat), n), "ns")
	l.put("sortkey.sort_allocs_warm", float64(allocs), "count")
	return nil
}

func (l *layerRun) sched() error {
	const morsels = 64
	sq := sched.NewQuery(sched.Shared(), context.Background(), 0)
	dispatch := medianTime(300, func() { sq.Run(l.workers, morsels, func(int) {}) })
	l.put("sched.dispatch_us_per_run", micros(dispatch), "us")
	return nil
}

func (l *layerRun) mem() error {
	const pairs = 1 << 20
	r := mem.NewManager(1 << 30).Reserve()
	defer r.Close()
	refused := 0
	took := timeIt(func() {
		for i := 0; i < pairs; i++ {
			if !r.TryGrant(4096) {
				refused++
			}
			r.Release(4096)
		}
	})
	if refused != 0 {
		return fmt.Errorf("mem replay: %d grants within the budget were refused", refused)
	}
	l.put("mem.grant_release_ns", nsPer(took, pairs), "ns")
	return nil
}

func (l *layerRun) plan() error {
	d := l.d
	g := plan.JoinGraph{
		Rels: []plan.JoinGraphRel{{Name: "fact", Rows: d.Fact}, {Name: "dim1", Rows: d.Dim1}, {Name: "dim2", Rows: d.Dim2}, {Name: "dim3", Rows: d.Dim3}},
		Edges: []plan.JoinGraphEdge{
			{A: 0, B: 1, NDVA: float64(d.Dim1), NDVB: float64(d.Dim1)},
			{A: 0, B: 2, NDVA: float64(d.Dim2), NDVB: float64(d.Dim2)},
			{A: 0, B: 3, NDVA: float64(d.Dim3), NDVB: float64(d.Dim3)},
		},
	}
	var res plan.JoinOrderResult
	took := medianTime(200, func() { res = plan.ChooseJoinOrder(g, plan.RadixConfig{}) })
	if len(res.Order) != len(g.Rels) {
		return fmt.Errorf("plan replay: join order covers %d of %d relations", len(res.Order), len(g.Rels))
	}
	l.put("plan.joinorder_us_star4", micros(took), "us")
	return nil
}
