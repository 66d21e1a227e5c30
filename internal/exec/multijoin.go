package exec

import (
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/radix"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/tupleindex"
)

// Join pipeline: the driver relation streams through a sequence of
// build-side hash tables in batches, each stage binding one more
// relation of the join graph into the row; a two-relation hash or
// pointer join is the pipeline with one stage. Nothing between stages is
// materialized — a stage's output batch feeds the next stage's probe
// directly, and only the final rows land in a TempList (or are merely
// counted). Build sides are the one thing that must exist up front, so
// they are hash tables built before the stream starts: the radix join's
// flat open-addressing table (radix.Table, drawn from its pool by
// BuildStageTable), or an existing hash index reused in place through
// IndexStage. The paper's chained-bucket table (§3.3) is built only by
// HashJoin, the reproduction baseline.
//
// The pipeline is reusable: buffers, per-stage match blocks, and probe
// closures are allocated at construction, so a warm Feed/Flush cycle
// over a fresh driver allocates nothing.

// StageTable is what a stage probes: every build tuple in the bucket of
// hash h that match accepts, appended to out. *radix.Table implements it
// directly; IndexStage adapts an existing hash index.
type StageTable interface {
	ProbeAppend(h uint64, match func(*storage.Tuple) bool, out storage.TupleBatch) storage.TupleBatch
}

// IndexStage lets a stage probe an existing hash index in place — the
// serial pipeline's reuse of a relation's own index instead of a build.
type IndexStage struct{ Index tupleindex.Hashed }

// ProbeAppend implements StageTable over the index's batched key search.
func (s IndexStage) ProbeAppend(h uint64, match func(*storage.Tuple) bool, out storage.TupleBatch) storage.TupleBatch {
	return s.Index.SearchKeyAppend(h, match, out)
}

// StageSpec describes one join step of a pipeline.
type StageSpec struct {
	// Table is the hash table over the build relation's join column
	// (keyed by storage.Hash of tupleindex.KeyOf). Nil when Deref is set.
	Table StageTable
	// BuildField is the join column inside the build relation;
	// tupleindex.SelfField joins on tuple identity.
	BuildField int
	// BuildSlot is the pipeline-row slot the matched build tuple binds.
	BuildSlot int
	// ProbeSlot/ProbeField locate the probe key in the incoming row:
	// the slot of an already-bound relation and the field within it.
	ProbeSlot, ProbeField int
	// Deref marks a precomputed pointer join (§2.1): instead of probing
	// a table, the stage follows the Ref value at ProbeSlot/ProbeField;
	// a null pointer means no match.
	Deref bool
	// Residual lists extra equality edges checked after the hash match —
	// the closing edges of a cyclic join graph, which reference two
	// already-bound slots.
	Residual []ResidualEdge
}

// ResidualEdge is one post-match equality predicate between two bound
// slots of the pipeline row.
type ResidualEdge struct {
	ASlot, AField int
	BSlot, BField int
}

// PipelineSpec configures a join pipeline.
type PipelineSpec struct {
	// Slots is the pipeline-row stride: the number of relations in the
	// join, indexed by declaration order (not join order), so the final
	// descriptor's sources line up regardless of the order chosen.
	Slots int
	// DriverSlot is the streamed relation's slot.
	DriverSlot int
	// Stages run in order; each binds one build slot.
	Stages []StageSpec
	// BatchRows is the per-stage buffer size in rows; <= 0 uses
	// storage.BatchSize.
	BatchRows int
	// Out receives final rows; nil requires Discard.
	Out *storage.TempList
	// Discard counts final rows without materializing them.
	Discard bool
	// Limit stops the pipeline after emitting this many rows (0 = none).
	Limit int
	Meter *meter.Counters
	// Prog, when non-nil, receives rows-processed progress per fed batch.
	Prog *obs.Progress
	// Sched is the query's admission handle on the shared morsel
	// scheduler (see SelectSpec.Sched). The serial pipeline ignores it.
	Sched *sched.Query
}

// pipeStage is a StageSpec plus its runtime state: the hoisted probe
// key/closure (a per-probe closure literal would heap-allocate), the
// stage-private match block (stages recurse into each other, so a
// shared block would be clobbered mid-iteration), the row scratch the
// next row is assembled in, and the emitted-row counter.
type pipeStage struct {
	StageSpec
	key     storage.Value
	match   func(*storage.Tuple) bool
	matches storage.TupleBatch
	row     []*storage.Tuple
	rows    int
}

// Pipeline is a reusable join executor. Construct with
// NewPipeline, stream the driver through Feed, then Flush once; Emitted
// and StageRows report the result and per-stage actuals. Release
// returns pooled buffers when the pipeline is done for good.
type Pipeline struct {
	spec      PipelineSpec
	stages    []pipeStage
	bufs      [][]*storage.Tuple // stage k's input rows, flat, stride=Slots; stage 0 probes the fed block itself
	driverRow []*storage.Tuple
	emitted   int
	stopped   bool
}

// NewPipeline builds the runtime state for spec. The spec must have at
// least one stage, and every stage must bind a distinct non-driver slot.
func NewPipeline(spec PipelineSpec) *Pipeline {
	if spec.BatchRows <= 0 {
		spec.BatchRows = storage.BatchSize
	}
	p := &Pipeline{
		spec:      spec,
		stages:    make([]pipeStage, len(spec.Stages)),
		bufs:      make([][]*storage.Tuple, len(spec.Stages)),
		driverRow: make([]*storage.Tuple, spec.Slots),
	}
	for i := range spec.Stages {
		st := &p.stages[i]
		st.StageSpec = spec.Stages[i]
		st.row = make([]*storage.Tuple, spec.Slots)
		if !st.Deref {
			st.matches = storage.GetBatch()
			fi := st.BuildField
			// The closure reads the meter through p so Rearm can swap in a
			// per-worker counter block without rebuilding closures.
			st.match = func(t *storage.Tuple) bool {
				p.spec.Meter.AddCompare(1)
				return storage.Equal(tupleindex.KeyOf(t, fi), st.key)
			}
		}
		if i > 0 {
			p.bufs[i] = make([]*storage.Tuple, 0, spec.BatchRows*spec.Slots)
		}
	}
	return p
}

// Reset rearms the pipeline for a fresh driver stream into out (which
// may be nil with Discard). Stage tables are kept — they describe the
// build sides, which have not changed.
func (p *Pipeline) Reset(out *storage.TempList) {
	p.spec.Out = out
	p.emitted = 0
	p.stopped = false
	for i := range p.stages {
		p.stages[i].rows = 0
		p.bufs[i] = p.bufs[i][:0]
	}
}

// Rearm is Reset plus a meter swap — the per-morsel re-use path, where
// each morsel writes into its own partial list under the worker's
// private counter block.
func (p *Pipeline) Rearm(out *storage.TempList, m *meter.Counters) {
	p.spec.Meter = m
	p.Reset(out)
}

// Release returns pooled blocks. The pipeline must not be used after.
func (p *Pipeline) Release() {
	for i := range p.stages {
		if p.stages[i].matches != nil {
			storage.PutBatch(p.stages[i].matches)
			p.stages[i].matches = nil
		}
	}
}

// Emitted returns the number of final rows produced so far.
func (p *Pipeline) Emitted() int { return p.emitted }

// StageRows returns the rows stage k emitted — the actual the planner's
// forecast is audited against.
func (p *Pipeline) StageRows(k int) int { return p.stages[k].rows }

// Feed streams one block of driver tuples into the pipeline. It returns
// false once the Limit is reached; callers should stop feeding then.
func (p *Pipeline) Feed(block []*storage.Tuple) bool {
	if p.stopped {
		return false
	}
	p.spec.Meter.AddBatch(1)
	if p.spec.Prog != nil {
		p.spec.Prog.AddRows(int64(len(block)))
	}
	st := &p.stages[0]
	for _, t := range block {
		p.driverRow[p.spec.DriverSlot] = t
		if !p.probe(0, st, p.driverRow) {
			p.stopped = true
			return false
		}
	}
	return true
}

// Flush drains every partially-filled stage buffer in pipeline order;
// call once after the last Feed.
func (p *Pipeline) Flush() {
	for k := 0; k < len(p.stages) && !p.stopped; k++ {
		if len(p.bufs[k]) > 0 {
			if !p.process(k) {
				p.stopped = true
			}
		}
	}
}

// process probes every buffered row through stage k, forwarding matches
// downstream, and empties the buffer. Returns false on Limit.
func (p *Pipeline) process(k int) bool {
	st := &p.stages[k]
	buf := p.bufs[k]
	slots := p.spec.Slots
	ok := true
	for off := 0; off < len(buf); off += slots {
		if !p.probe(k, st, buf[off:off+slots]) {
			ok = false
			break
		}
	}
	p.bufs[k] = buf[:0]
	return ok
}

// probe matches one row against stage k's build side and binds each
// match into the next stage's buffer (or the final output).
func (p *Pipeline) probe(k int, st *pipeStage, row []*storage.Tuple) bool {
	if st.Deref {
		v := row[st.ProbeSlot].Field(st.ProbeField)
		if v.IsNull() {
			return true
		}
		return p.bind(k, st, row, v.Ref())
	}
	st.key = tupleindex.KeyOf(row[st.ProbeSlot], st.ProbeField)
	p.spec.Meter.AddHash(1) // one a probe row, as the plan forecasts
	if st.key.IsNull() {
		return true // a NULL key matches nothing
	}
	st.matches = st.Table.ProbeAppend(storage.Hash(st.key), st.match, st.matches[:0])
	for _, m := range st.matches {
		if !p.bind(k, st, row, m) {
			return false
		}
	}
	return true
}

// bind extends row with build tuple m, applies the stage's residual
// edges, and forwards the result — into the next stage's buffer
// (cascading a full buffer immediately) or the final sink.
func (p *Pipeline) bind(k int, st *pipeStage, row []*storage.Tuple, m *storage.Tuple) bool {
	copy(st.row, row)
	st.row[st.BuildSlot] = m
	for _, e := range st.Residual {
		p.spec.Meter.AddCompare(1)
		a := tupleindex.KeyOf(st.row[e.ASlot], e.AField)
		if a.IsNull() || !storage.Equal(a, tupleindex.KeyOf(st.row[e.BSlot], e.BField)) {
			return true
		}
	}
	st.rows++
	if k == len(p.stages)-1 {
		p.emitted++
		if !p.spec.Discard {
			p.spec.Out.Append(st.row)
		}
		return p.spec.Limit <= 0 || p.emitted < p.spec.Limit
	}
	p.bufs[k+1] = append(p.bufs[k+1], st.row...)
	if len(p.bufs[k+1]) == cap(p.bufs[k+1]) {
		return p.process(k + 1)
	}
	return true
}

// BuildStageTable runs the build phase of one pipeline stage: a flat
// radix.Table over src's field column, drawn from the table pool and
// sized for src.Len() entries, so a warm build allocates nothing. The
// caller owns the table and returns it with radix.PutTable once no
// pipeline probes it. nodeSize is unused and stays only for existing
// callers. m meters the build only (one batch per scanned block and the
// table's insert steps): the finished table is shared read-only across
// probe workers, and probe work is counted by the pipeline's own
// counters.
func BuildStageTable(src Source, field, nodeSize int, m *meter.Counters) *radix.Table {
	tbl := radix.GetTable()
	tbl.Reset(src.Len())
	buf := storage.GetBatch()
	src.ScanBatches(buf, func(block storage.TupleBatch) bool {
		m.AddBatch(1)
		for _, t := range block {
			tbl.Insert(storage.Hash(tupleindex.KeyOf(t, field)), t)
		}
		return true
	})
	storage.PutBatch(buf)
	m.AddHashProbe(tbl.InsertSteps())
	return tbl
}
