package exec

import (
	"testing"

	"repro/internal/meter"
	"repro/internal/storage"
)

// threeWayFixture builds relations a(val,seq), b(val,seq), c(val,seq)
// and a pipeline joining a.val = b.val, b.val = c.val with a as driver.
func threeWayFixture(t testing.TB, av, bv, cv []int64) (ra, rb, rc *storage.Relation) {
	ids := storage.NewIDGen()
	return buildRelation(t, ids, "a", av),
		buildRelation(t, ids, "b", bv),
		buildRelation(t, ids, "c", cv)
}

// chainPipeline builds the a→b→c pipeline over the fixture with the
// given sink configuration.
func chainPipeline(m *meter.Counters, rb, rc *storage.Relation, out *storage.TempList, discard bool, limit int) *Pipeline {
	tb := BuildStageTable(relScan{rb}, 0, 0, m)
	tc := BuildStageTable(relScan{rc}, 0, 0, m)
	return NewPipeline(PipelineSpec{
		Slots:      3,
		DriverSlot: 0,
		Stages: []StageSpec{
			{Table: tb, BuildField: 0, BuildSlot: 1, ProbeSlot: 0, ProbeField: 0},
			{Table: tc, BuildField: 0, BuildSlot: 2, ProbeSlot: 1, ProbeField: 0},
		},
		Out:     out,
		Discard: discard,
		Limit:   limit,
		Meter:   m,
	})
}

// relScan adapts a relation's partitions into a Source for tests.
type relScan struct{ rel *storage.Relation }

func (s relScan) Len() int { return s.rel.Cardinality() }
func (s relScan) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	buf, ok := buf[:0], true
	for _, p := range s.rel.Partitions() {
		if buf, ok = p.Gather(buf, fn); !ok {
			return
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

func feedAll(p *Pipeline, rel *storage.Relation) {
	buf := storage.GetBatch()
	relScan{rel}.ScanBatches(buf, func(block storage.TupleBatch) bool {
		return p.Feed(block)
	})
	p.Flush()
	storage.PutBatch(buf)
}

// referenceThreeWay counts a⋈b⋈c rows by value with plain maps.
func referenceThreeWay(av, bv, cv []int64) int {
	bc := map[int64]int{}
	for _, v := range bv {
		bc[v]++
	}
	cc := map[int64]int{}
	for _, v := range cv {
		cc[v]++
	}
	n := 0
	for _, v := range av {
		n += bc[v] * cc[v]
	}
	return n
}

func seqVals(n int, mod int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) % mod
	}
	return out
}

func TestPipelineMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		av, bv, cv []int64
	}{
		{"unique-keys", seqVals(500, 1000), seqVals(100, 1000), seqVals(50, 1000)},
		{"duplicates", seqVals(300, 7), seqVals(40, 7), seqVals(20, 7)},
		{"selective", seqVals(1000, 1000), seqVals(100, 1000), seqVals(10, 1000)},
		{"empty-middle", seqVals(100, 10), nil, seqVals(10, 10)},
		{"tiny", []int64{1}, []int64{1}, []int64{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ra, rb, rc := threeWayFixture(t, tc.av, tc.bv, tc.cv)
			m := newMeter()
			desc := storage.Descriptor{Sources: []string{"a", "b", "c"}}
			out := storage.MustTempList(desc)
			p := chainPipeline(m, rb, rc, out, false, 0)
			defer p.Release()
			feedAll(p, ra)
			want := referenceThreeWay(tc.av, tc.bv, tc.cv)
			if p.Emitted() != want || out.Len() != want {
				t.Fatalf("emitted %d (list %d), want %d", p.Emitted(), out.Len(), want)
			}
			// Every output row must actually join: a.val = b.val = c.val.
			out.Scan(func(_ int, row storage.Row) bool {
				if row[0].Field(0).Int() != row[1].Field(0).Int() ||
					row[1].Field(0).Int() != row[2].Field(0).Int() {
					t.Fatalf("non-joining row %v", row)
				}
				return true
			})
			// Stage actuals: the last stage's count is the emitted total.
			if p.StageRows(1) != want {
				t.Fatalf("StageRows(1) = %d, want %d", p.StageRows(1), want)
			}
		})
	}
}

func TestPipelineLimitEarlyExit(t *testing.T) {
	av, bv, cv := seqVals(1000, 10), seqVals(100, 10), seqVals(50, 10)
	ra, rb, rc := threeWayFixture(t, av, bv, cv)
	m := newMeter()
	out := storage.MustTempList(storage.Descriptor{Sources: []string{"a", "b", "c"}})
	p := chainPipeline(m, rb, rc, out, false, 7)
	defer p.Release()
	feedAll(p, ra)
	if p.Emitted() != 7 || out.Len() != 7 {
		t.Fatalf("limit 7: emitted %d, list %d", p.Emitted(), out.Len())
	}
	if p.Feed(nil) {
		t.Fatal("pipeline still accepting input after limit")
	}
}

func TestPipelineResidualEdge(t *testing.T) {
	// Cyclic graph a-b, b-c, a-c on the same column: the a-c edge is
	// residual. With val mod 7 everywhere, the hash matches already
	// satisfy it, so the residual must not drop rows; with c holding
	// seq-distinct values on field 1, an a.seq = c.seq residual prunes.
	av, bv, cv := seqVals(70, 7), seqVals(14, 7), seqVals(14, 7)
	ra, rb, rc := threeWayFixture(t, av, bv, cv)
	m := newMeter()
	tb := BuildStageTable(relScan{rb}, 0, 0, m)
	tc := BuildStageTable(relScan{rc}, 0, 0, m)
	out := storage.MustTempList(storage.Descriptor{Sources: []string{"a", "b", "c"}})
	p := NewPipeline(PipelineSpec{
		Slots:      3,
		DriverSlot: 0,
		Stages: []StageSpec{
			{Table: tb, BuildField: 0, BuildSlot: 1, ProbeSlot: 0, ProbeField: 0},
			{Table: tc, BuildField: 0, BuildSlot: 2, ProbeSlot: 1, ProbeField: 0,
				Residual: []ResidualEdge{{ASlot: 0, AField: 0, BSlot: 2, BField: 0}}},
		},
		Out:   out,
		Meter: m,
	})
	defer p.Release()
	feedAll(p, ra)
	if want := referenceThreeWay(av, bv, cv); p.Emitted() != want {
		t.Fatalf("satisfied residual dropped rows: %d, want %d", p.Emitted(), want)
	}
	// Now a residual on seq (field 1): only rows where a.seq = c.seq
	// survive. Reference: count triples with matching vals and seqs.
	out2 := storage.MustTempList(storage.Descriptor{Sources: []string{"a", "b", "c"}})
	p2 := NewPipeline(PipelineSpec{
		Slots:      3,
		DriverSlot: 0,
		Stages: []StageSpec{
			{Table: tb, BuildField: 0, BuildSlot: 1, ProbeSlot: 0, ProbeField: 0},
			{Table: tc, BuildField: 0, BuildSlot: 2, ProbeSlot: 1, ProbeField: 0,
				Residual: []ResidualEdge{{ASlot: 0, AField: 1, BSlot: 2, BField: 1}}},
		},
		Out:   out2,
		Meter: m,
	})
	defer p2.Release()
	feedAll(p2, ra)
	want := 0
	bc := map[int64]int{}
	for _, v := range bv {
		bc[v]++
	}
	for ai, a := range av {
		for ci, c := range cv {
			if a == c && ai == ci { // same val, same seq
				want += bc[a]
			}
		}
	}
	if p2.Emitted() != want {
		t.Fatalf("residual on seq: emitted %d, want %d", p2.Emitted(), want)
	}
}

func TestPipelineDerefStage(t *testing.T) {
	// b carries a Ref column pointing at c tuples: the final stage
	// follows the pointer instead of probing a table.
	ids := storage.NewIDGen()
	ra := buildRelation(t, ids, "a", seqVals(50, 5))
	rc := buildRelation(t, ids, "c", seqVals(5, 5))
	var cTuples []*storage.Tuple
	rc.ScanPhysical(func(tp *storage.Tuple) bool { cTuples = append(cTuples, tp); return true })
	schema := storage.MustSchema(
		storage.FieldDef{Name: "val", Type: storage.Int},
		storage.FieldDef{Name: "cref", Type: storage.Ref, ForeignKey: "c"},
	)
	rb, err := storage.NewRelation("b", schema, storage.Config{}, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ref := storage.RefValue(cTuples[i%len(cTuples)])
		if i == 3 { // one null pointer: must produce no row
			ref = storage.NullValue
		}
		if _, err := rb.Insert([]storage.Value{storage.IntValue(int64(i % 5)), ref}); err != nil {
			t.Fatal(err)
		}
	}
	m := newMeter()
	tb := BuildStageTable(relScan{rb}, 0, 0, m)
	out := storage.MustTempList(storage.Descriptor{Sources: []string{"a", "b", "c"}})
	p := NewPipeline(PipelineSpec{
		Slots:      3,
		DriverSlot: 0,
		Stages: []StageSpec{
			{Table: tb, BuildField: 0, BuildSlot: 1, ProbeSlot: 0, ProbeField: 0},
			{Deref: true, BuildSlot: 2, ProbeSlot: 1, ProbeField: 1},
		},
		Out:   out,
		Meter: m,
	})
	defer p.Release()
	feedAll(p, ra)
	// Reference: each a row matches b rows with equal val; each non-null
	// b contributes exactly its referenced c tuple.
	want := 0
	for _, a := range seqVals(50, 5) {
		for i := 0; i < 10; i++ {
			if int64(i%5) == a && i != 3 {
				want++
			}
		}
	}
	if p.Emitted() != want {
		t.Fatalf("deref stage emitted %d, want %d", p.Emitted(), want)
	}
	out.Scan(func(_ int, row storage.Row) bool {
		if row[2] == nil {
			t.Fatal("null pointer produced a row")
		}
		return true
	})
}

func TestPipelineResetReuse(t *testing.T) {
	av, bv, cv := seqVals(400, 8), seqVals(64, 8), seqVals(16, 8)
	ra, rb, rc := threeWayFixture(t, av, bv, cv)
	m := newMeter()
	p := chainPipeline(m, rb, rc, nil, true, 0)
	defer p.Release()
	want := referenceThreeWay(av, bv, cv)
	for round := 0; round < 3; round++ {
		p.Reset(nil)
		feedAll(p, ra)
		if p.Emitted() != want {
			t.Fatalf("round %d: emitted %d, want %d", round, p.Emitted(), want)
		}
	}
}

// TestPipelineWarmPathAllocs pins the zero-allocation contract of the
// warm pipelined path: with tables built and buffers warm, streaming
// the driver allocates nothing.
func TestPipelineWarmPathAllocs(t *testing.T) {
	av, bv, cv := seqVals(2048, 64), seqVals(256, 64), seqVals(64, 64)
	ra, rb, rc := threeWayFixture(t, av, bv, cv)
	m := newMeter()
	p := chainPipeline(m, rb, rc, nil, true, 0)
	defer p.Release()
	var driver []*storage.Tuple
	ra.ScanPhysical(func(tp *storage.Tuple) bool { driver = append(driver, tp); return true })
	p.Reset(nil)
	feedAll(p, ra) // warm the buffers and match blocks
	allocs := testing.AllocsPerRun(10, func() {
		p.Reset(nil)
		SliceSource(driver).ScanBatches(nil, func(block storage.TupleBatch) bool {
			return p.Feed(block)
		})
		p.Flush()
	})
	if allocs != 0 {
		t.Fatalf("warm pipelined path allocates %.1f per run, want 0", allocs)
	}
}

// SliceSource mirrors parallel.SliceSource for the alloc pin without an
// import cycle.
type SliceSource []*storage.Tuple

func (s SliceSource) Len() int { return len(s) }
func (s SliceSource) ScanBatches(buf storage.TupleBatch, fn func(storage.TupleBatch) bool) {
	rest := []*storage.Tuple(s)
	for len(rest) > storage.BatchSize {
		if !fn(rest[:storage.BatchSize:storage.BatchSize]) {
			return
		}
		rest = rest[storage.BatchSize:]
	}
	if len(rest) > 0 {
		fn(rest[:len(rest):len(rest)])
	}
}
