package radix

import (
	"math/rand"
	"testing"

	"repro/internal/meter"
	"repro/internal/storage"
)

// mkEntries builds n row entries with hashes drawn by gen.
func mkEntries(n int, gen func(i int) uint64) []RowEntry {
	es := make([]RowEntry, n)
	for i := range es {
		es[i] = RowEntry{H: gen(i), P: int32(i)}
	}
	return es
}

// checkPartitioned asserts the invariants every Partition result must
// hold: exact coverage, every entry in its hash's partition, and stable
// (ascending payload) order within each partition.
func checkPartitioned(t *testing.T, res []RowEntry, offs []int, pl Plan, n int) {
	t.Helper()
	fanout := pl.Fanout()
	if len(offs) != fanout+1 {
		t.Fatalf("offs length = %d, want fanout+1 = %d", len(offs), fanout+1)
	}
	if offs[0] != 0 || offs[fanout] != n {
		t.Fatalf("offs[0]=%d offs[last]=%d, want 0 and %d", offs[0], offs[fanout], n)
	}
	shift := 64 - pl.TotalBits()
	seen := make(map[int32]bool, n)
	for p := 0; p < fanout; p++ {
		if offs[p] > offs[p+1] {
			t.Fatalf("partition %d has negative extent [%d,%d)", p, offs[p], offs[p+1])
		}
		prev := int32(-1)
		for _, e := range res[offs[p]:offs[p+1]] {
			if got := int(e.H >> shift); got != p {
				t.Fatalf("entry with hash %#x landed in partition %d, want %d", e.H, p, got)
			}
			if e.P <= prev {
				t.Fatalf("partition %d not stable: payload %d after %d", p, e.P, prev)
			}
			prev = e.P
			if seen[e.P] {
				t.Fatalf("payload %d appears twice", e.P)
			}
			seen[e.P] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("partitioned output covers %d entries, want %d", len(seen), n)
	}
}

func TestPartitionSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	es := mkEntries(10_000, func(int) uint64 { return rng.Uint64() })
	var p Partitioner[int32]
	var m meter.Counters
	pl := Plan{Bits: []uint{6}}
	res, offs := p.Partition(es, pl, &m)
	checkPartitioned(t, res, offs, pl, len(es))
	if m.RadixPasses != 1 {
		t.Fatalf("RadixPasses = %d, want 1", m.RadixPasses)
	}
	if m.Partitions != 64 {
		t.Fatalf("Partitions = %d, want 64", m.Partitions)
	}
	if m.DataMoves != 10_000 {
		t.Fatalf("DataMoves = %d, want one per entry per pass", m.DataMoves)
	}
}

func TestPartitionMultiPass(t *testing.T) {
	for _, bits := range [][]uint{{4, 4}, {3, 3, 3}, {8, 2}, {1, 1, 1, 1}} {
		rng := rand.New(rand.NewSource(2))
		es := mkEntries(5_000, func(int) uint64 { return rng.Uint64() })
		var p Partitioner[int32]
		var m meter.Counters
		pl := Plan{Bits: bits}
		res, offs := p.Partition(es, pl, &m)
		checkPartitioned(t, res, offs, pl, len(es))
		if int(m.RadixPasses) != len(bits) {
			t.Fatalf("bits %v: RadixPasses = %d, want %d", bits, m.RadixPasses, len(bits))
		}
		if want := int64(len(bits)) * 5_000; m.DataMoves != want {
			t.Fatalf("bits %v: DataMoves = %d, want %d", bits, m.DataMoves, want)
		}
	}
}

// Multi-pass and single-pass plans of the same total width must produce
// the identical final layout (MSD refinement is order-preserving).
func TestMultiPassMatchesSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := mkEntries(8_000, func(int) uint64 { return rng.Uint64() })
	run := func(bits []uint) ([]RowEntry, []int) {
		es := make([]RowEntry, len(base))
		copy(es, base)
		var p Partitioner[int32]
		res, offs := p.Partition(es, Plan{Bits: bits}, nil)
		out := make([]RowEntry, len(res))
		copy(out, res)
		o := make([]int, len(offs))
		copy(o, offs)
		return out, o
	}
	r1, o1 := run([]uint{8})
	r2, o2 := run([]uint{4, 4})
	r3, o3 := run([]uint{3, 5})
	for i := range r1 {
		if r1[i] != r2[i] || r1[i] != r3[i] {
			t.Fatalf("layouts diverge at %d: %v vs %v vs %v", i, r1[i], r2[i], r3[i])
		}
	}
	for i := range o1 {
		if o1[i] != o2[i] || o1[i] != o3[i] {
			t.Fatalf("offsets diverge at %d", i)
		}
	}
}

// Degenerate: all-equal keys put every entry in one partition; the hot
// partition must stream through the write-combining buffers without
// overflow and stay stable.
func TestPartitionAllEqualKeys(t *testing.T) {
	const h = uint64(0xdeadbeefcafef00d)
	es := mkEntries(10_000, func(int) uint64 { return h })
	var p Partitioner[int32]
	pl := Plan{Bits: []uint{5, 3}}
	res, offs := p.Partition(es, pl, nil)
	checkPartitioned(t, res, offs, pl, len(es))
	hot := int(h >> (64 - pl.TotalBits()))
	if got := offs[hot+1] - offs[hot]; got != 10_000 {
		t.Fatalf("hot partition holds %d entries, want all 10000", got)
	}
}

func TestPartitionEmptyAndTiny(t *testing.T) {
	var p Partitioner[int32]
	pl := Plan{Bits: []uint{4}}
	res, offs := p.Partition(nil, pl, nil)
	if len(res) != 0 || len(offs) != pl.Fanout()+1 || offs[pl.Fanout()] != 0 {
		t.Fatalf("empty input: res=%d offs=%v", len(res), offs)
	}
	one := mkEntries(1, func(int) uint64 { return 0 })
	res, offs = p.Partition(one, pl, nil)
	checkPartitioned(t, res, offs, pl, 1)
	// Zero-width plan: single partition, input untouched.
	res, offs = p.Partition(one, Plan{}, nil)
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 1 || res[0].P != 0 {
		t.Fatalf("zero-bit plan: offs=%v res=%v", offs, res)
	}
}

func TestPartitionerReuseAcrossPlans(t *testing.T) {
	var p Partitioner[int32]
	rng := rand.New(rand.NewSource(4))
	for _, pl := range []Plan{{Bits: []uint{8}}, {Bits: []uint{2}}, {Bits: []uint{6, 6}}, {Bits: []uint{1}}} {
		es := mkEntries(3_000, func(int) uint64 { return rng.Uint64() })
		res, offs := p.Partition(es, pl, nil)
		checkPartitioned(t, res, offs, pl, len(es))
	}
}

func TestPlanExceedingMaxBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for plan wider than MaxBits")
		}
	}()
	var p Partitioner[int32]
	p.Partition(nil, Plan{Bits: []uint{9, 9}}, nil)
}

// The scatter loop must be zero-alloc once the partitioner is warm —
// the steady state the pooled partitioners run in.
func TestPartitionZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	es := mkEntries(4_096, func(int) uint64 { return rng.Uint64() })
	var p Partitioner[int32]
	pl := Plan{Bits: []uint{6, 4}}
	p.Partition(es, pl, nil) // warm the scratch
	var m meter.Counters
	allocs := testing.AllocsPerRun(10, func() {
		p.Partition(es, pl, &m)
	})
	if allocs != 0 {
		t.Fatalf("warm Partition allocated %.1f times per run, want 0", allocs)
	}
}

func TestStats(t *testing.T) {
	pl := Plan{Bits: []uint{2}}
	offs := []int{0, 10, 10, 30, 40}
	s := StatsOf(pl, offs)
	if s.Rows != 40 || s.MaxPart != 20 || s.Fanout != 4 || s.Passes != 1 {
		t.Fatalf("StatsOf = %+v", s)
	}
	if got := s.Skew(); got != 2.0 {
		t.Fatalf("Skew = %v, want 2.0 (20 vs mean 10)", got)
	}
	if (Stats{}).Skew() != 0 {
		t.Fatal("empty Skew should be 0")
	}
}

func TestPools(t *testing.T) {
	tp := GetTuplePartitioner()
	es := []TupleEntry{{H: 1, P: &storage.Tuple{}}, {H: 1 << 63, P: &storage.Tuple{}}}
	res, offs := tp.Partition(es, Plan{Bits: []uint{1}}, nil)
	if offs[1] != 1 || res[0].P == nil {
		t.Fatalf("tuple partition: offs=%v", offs)
	}
	PutTuplePartitioner(tp)

	// A join side filled into the partitioner's own input array: the
	// scatter ping-pongs between in and buf, and Put clears both, so the
	// pool pins no tuple.
	tp = GetTuplePartitioner()
	in := tp.Entries(300)
	for i := range in {
		in[i] = TupleEntry{H: uint64(i) << 56, P: &storage.Tuple{}}
	}
	res, _ = tp.Partition(in, Plan{Bits: []uint{2, 2}}, nil)
	if len(res) != 300 || res[0].P == nil {
		t.Fatalf("pooled entries: partitioned %d", len(res))
	}
	PutTuplePartitioner(tp)
	for name, arr := range map[string][]TupleEntry{"input": tp.in, "buf": tp.buf} {
		for i, e := range arr[:cap(arr)] {
			if e.P != nil {
				t.Fatalf("after PutTuplePartitioner the %s array still holds a tuple at %d", name, i)
			}
		}
	}

	rp := GetRowPartitioner()
	rp.Partition(mkEntries(10, func(i int) uint64 { return uint64(i) << 60 }), Plan{Bits: []uint{4}}, nil)
	PutRowPartitioner(rp)
}

func BenchmarkPartition1M(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	es := mkEntries(1<<20, func(int) uint64 { return rng.Uint64() })
	work := make([]RowEntry, len(es))
	var p Partitioner[int32]
	pl := Plan{Bits: []uint{7}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, es)
		p.Partition(work, pl, nil)
	}
	b.SetBytes(int64(len(es)) * 16)
}

// PartitionFrom with skip=B must refine one partition of a skip=0 run
// over B bits exactly as a single wider run would have: re-splitting
// partition p of a 4-bit run by 3 more bits reproduces the 7-bit
// layout's partitions [p*8, p*8+8).
func TestPartitionFromRefinesFatPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := mkEntries(20_000, func(int) uint64 { return rng.Uint64() })

	var p Partitioner[int32]
	coarse := Plan{Bits: []uint{4}}
	cres, coffs := p.Partition(append([]RowEntry(nil), base...), coarse, nil)

	var pw Partitioner[int32]
	wide := Plan{Bits: []uint{7}}
	wres, woffs := pw.Partition(append([]RowEntry(nil), base...), wide, nil)

	fine := Plan{Bits: []uint{3}}
	for part := 0; part < coarse.Fanout(); part++ {
		seg := append([]RowEntry(nil), cres[coffs[part]:coffs[part+1]]...)
		var pr Partitioner[int32]
		fres, foffs := pr.PartitionFrom(seg, fine, coarse.TotalBits(), nil)
		if len(foffs) != fine.Fanout()+1 {
			t.Fatalf("part %d: %d offsets", part, len(foffs))
		}
		for c := 0; c < fine.Fanout(); c++ {
			got := fres[foffs[c]:foffs[c+1]]
			want := wres[woffs[part*8+c]:woffs[part*8+c+1]]
			if len(got) != len(want) {
				t.Fatalf("part %d child %d: %d entries, want %d", part, c, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("part %d child %d entry %d: %+v, want %+v (refinement not stable)", part, c, i, got[i], want[i])
				}
			}
		}
	}
}

// All-equal hashes cannot be refined: every entry lands in one child no
// matter how deep the re-split goes — the bail-out the budgeted join's
// Force path exists for.
func TestPartitionFromAllEqual(t *testing.T) {
	es := mkEntries(1_000, func(int) uint64 { return 0xDEADBEEFCAFE0000 })
	var p Partitioner[int32]
	pl := Plan{Bits: []uint{4}}
	res, offs := p.PartitionFrom(es, pl, 8, nil)
	max := 0
	for i := 0; i < pl.Fanout(); i++ {
		if n := offs[i+1] - offs[i]; n > max {
			max = n
		}
	}
	if max != len(res) || max != 1_000 {
		t.Fatalf("all-equal hashes split: max child %d of %d", max, len(res))
	}
}

func TestPartitionFromOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("skip+bits > 64 did not panic")
		}
	}()
	var p Partitioner[int32]
	p.PartitionFrom(nil, Plan{Bits: []uint{16}}, 60, nil)
}

func TestTableBytes(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, 8 * 16}, {1, 8 * 16}, {4, 8 * 16}, {5, 16 * 16},
		{8, 16 * 16}, {100, 256 * 16}, {1 << 20, 1 << 21 * 16},
	}
	for _, c := range cases {
		if got := SlotBytes(c.n); got != c.want {
			t.Fatalf("SlotBytes(%d) = %d, want %d", c.n, got, c.want)
		}
		if got := TableBytes(c.n); got != 2*c.want {
			t.Fatalf("TableBytes(%d) = %d, want %d (slots plus duplicate chains)", c.n, got, 2*c.want)
		}
	}
	var tb Table
	tb.Reset(100)
	if got := int64(len(tb.slots)) * 16; got != SlotBytes(100) {
		t.Fatalf("SlotBytes(100)=%d but Reset(100) sized %d", SlotBytes(100), got)
	}
}
