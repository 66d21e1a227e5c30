package chainhash

import (
	"testing"

	"repro/internal/index"
	"repro/internal/index/indextest"
	"repro/internal/meter"
)

func TestConformance(t *testing.T) {
	indextest.RunHashed(t,
		func(cfg index.Config[indextest.Entry]) index.Hashed[indextest.Entry] {
			return New(cfg)
		},
		indextest.HashedOptions{Static: true, ProbeAllocs: 1})
}

func intTable(nodeSize, capacity int, m *meter.Counters) *Table[int64] {
	return New(index.Config[int64]{
		Hash:         func(e int64) uint64 { return indextest.HashKey(e) },
		Eq:           func(a, b int64) bool { return a == b },
		NodeSize:     nodeSize,
		CapacityHint: capacity,
		Meter:        m,
	})
}

func TestStaticTableDoesNotGrow(t *testing.T) {
	tb := intTable(4, 100, nil)
	slots := len(tb.slots)
	for i := int64(0); i < 10000; i++ { // 100x the capacity hint
		tb.Insert(i)
	}
	if len(tb.slots) != slots {
		t.Fatalf("static table grew from %d to %d slots", slots, len(tb.slots))
	}
	if tb.Len() != 10000 {
		t.Fatalf("Len=%d", tb.Len())
	}
	// Everything still findable — just via longer chains.
	for i := int64(0); i < 10000; i += 97 {
		if _, ok := tb.SearchKey(indextest.HashKey(i), func(e int64) bool { return e == i }); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

func TestSearchCostGrowsWithOverload(t *testing.T) {
	var m meter.Counters
	tb := intTable(4, 1000, &m)
	for i := int64(0); i < 1000; i++ {
		tb.Insert(i)
	}
	m.Reset()
	for i := int64(0); i < 1000; i++ {
		tb.SearchKey(indextest.HashKey(i), func(e int64) bool { return e == i })
	}
	atCapacity := m.Comparisons

	tb2 := intTable(4, 1000, &m)
	for i := int64(0); i < 10000; i++ {
		tb2.Insert(i)
	}
	m.Reset()
	for i := int64(0); i < 1000; i++ {
		tb2.SearchKey(indextest.HashKey(i), func(e int64) bool { return e == i })
	}
	overloaded := m.Comparisons
	if overloaded < atCapacity*4 {
		t.Fatalf("overloading barely changed search cost: %d vs %d", overloaded, atCapacity)
	}
}

func TestSlotCountIsPowerOfTwo(t *testing.T) {
	for _, hint := range []int{1, 3, 4, 100, 1000, 4096, 100000} {
		tb := intTable(4, hint, nil)
		n := len(tb.slots)
		if n&(n-1) != 0 || n < 1 {
			t.Fatalf("hint %d: %d slots, not a power of two", hint, n)
		}
		if tb.mask != uint64(n-1) {
			t.Fatalf("hint %d: mask %#x does not match %d slots", hint, tb.mask, n)
		}
		// Still sized for ~one full node per slot: within 2x below the
		// pre-rounding count hint/nodeSize, and never above it.
		if 2*n < hint/4 {
			t.Fatalf("hint %d: only %d slots", hint, n)
		}
		if hint >= 4 && n > hint/4 {
			t.Fatalf("hint %d: %d slots exceed the pre-rounding count", hint, n)
		}
	}
}

func TestStorageFactorIncludesUnusedSlots(t *testing.T) {
	// §3.2.2: chained bucket hashing's 2.3 factor came from one pointer
	// per data item plus partly-unused table slots. With single-item
	// nodes the factor must exceed 2 (item + next pointer + table share).
	tb := intTable(1, 1000, nil)
	for i := int64(0); i < 1000; i++ {
		tb.Insert(i)
	}
	f := index.PaperModel.Factor(tb.Stats())
	if f < 2.0 || f > 4.0 {
		t.Fatalf("storage factor %.2f outside the expected 2-4 band", f)
	}
}

// The slot computation runs once per Insert and once per probe, on the
// hot path of every hash join build. The benchmark pair documents why
// New rounds the slot count to a power of two: a runtime-variable
// modulo is a hardware divide, the mask is a single AND. The slot count
// is loaded from a package variable so the compiler cannot
// strength-reduce the modulo the way it could a constant.
var (
	benchSlots uint64 = 1 << 14
	benchMask  uint64 = 1<<14 - 1
	benchSink  uint64
)

func BenchmarkSlotModulo(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s += indextest.HashKey(int64(i)) % benchSlots
	}
	benchSink = s
}

func BenchmarkSlotMask(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s += indextest.HashKey(int64(i)) & benchMask
	}
	benchSink = s
}

// End-to-end probe cost at one full node per slot.
func BenchmarkSearchKey(b *testing.B) {
	const n = 1 << 16
	tb := intTable(4, n, nil)
	for i := int64(0); i < n; i++ {
		tb.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i & (n - 1))
		if _, ok := tb.SearchKey(indextest.HashKey(k), func(e int64) bool { return e == k }); !ok {
			b.Fatal("key lost")
		}
	}
}
