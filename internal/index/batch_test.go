package index_test

import (
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/index/chainhash"
	"repro/internal/index/exthash"
	"repro/internal/index/indextest"
	"repro/internal/index/linearhash"
	"repro/internal/index/mlh"
)

// The three dynamic hash structures whose block methods replaced the
// gather fallbacks the engine once reached them through: their
// ScanBatches and SearchKeyAppend must hand out exactly the inserted
// entries, in full blocks, without per-entry allocation.
var fallbackTables = []struct {
	name string
	mk   func(cfg index.Config[indextest.Entry]) index.Hashed[indextest.Entry]
}{
	{"exthash", func(cfg index.Config[indextest.Entry]) index.Hashed[indextest.Entry] { return exthash.New(cfg) }},
	{"linearhash", func(cfg index.Config[indextest.Entry]) index.Hashed[indextest.Entry] { return linearhash.New(cfg) }},
	{"mlh", func(cfg index.Config[indextest.Entry]) index.Hashed[indextest.Entry] { return mlh.New(cfg) }},
}

func fillHashed(t *testing.T, ix index.Hashed[indextest.Entry], n int, dupEvery int) []indextest.Entry {
	t.Helper()
	var want []indextest.Entry
	for i := 0; i < n; i++ {
		e := indextest.Entry{Key: int64(i), ID: int64(i)}
		if dupEvery > 0 && i%dupEvery == 0 {
			e.Key = int64(i / dupEvery) // collide keys, distinct IDs
		}
		if !ix.Insert(e) {
			t.Fatalf("insert %v failed", e)
		}
		want = append(want, e)
	}
	return want
}

func sortEntries(s []indextest.Entry) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Key != s[j].Key {
			return s[i].Key < s[j].Key
		}
		return s[i].ID < s[j].ID
	})
}

func sameEntries(t *testing.T, what string, got, want []indextest.Entry) {
	t.Helper()
	sortEntries(want)
	sortEntries(got)
	if len(got) != len(want) {
		t.Fatalf("%s yielded %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s entry %d: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// TestScanHashedBatchesFallback: ScanBatches must visit exactly the
// inserted entry set, in full cap(buf) blocks (except the last), and
// honor early exit mid-stream.
func TestScanHashedBatchesFallback(t *testing.T) {
	const n = 5000
	for _, c := range fallbackTables {
		t.Run(c.name, func(t *testing.T) {
			ix := c.mk(indextest.Config(false, 4))
			want := fillHashed(t, ix, n, 7)

			buf := make([]indextest.Entry, 0, 256)
			var got []indextest.Entry
			blocks := 0
			ix.ScanBatches(buf, func(block []indextest.Entry) bool {
				blocks++
				if len(block) != cap(buf) && blocks <= n/cap(buf) {
					t.Fatalf("non-final block %d has %d entries, want %d", blocks, len(block), cap(buf))
				}
				got = append(got, block...)
				return true
			})
			sameEntries(t, "batched scan", got, want)

			// Early exit: stopping after the first block stops the scan.
			calls := 0
			ix.ScanBatches(buf, func(block []indextest.Entry) bool {
				calls++
				return false
			})
			if calls != 1 {
				t.Fatalf("scan continued after fn returned false: %d calls", calls)
			}
		})
	}
}

// TestScanHashedBatchesNativePreferred: chainhash's ScanBatches, the one
// native block scan the hash kinds had before the fallbacks went, must
// still visit exactly the inserted entry set.
func TestScanHashedBatchesNativePreferred(t *testing.T) {
	const n = 3000
	native := chainhash.New(indextest.Config(false, 4))
	want := fillHashed(t, native, n, 0)
	var got []indextest.Entry
	native.ScanBatches(make([]indextest.Entry, 0, 256),
		func(block []indextest.Entry) bool { got = append(got, block...); return true })
	sameEntries(t, "native batched scan", got, want)
}

// TestSearchKeyAppendFallback: SearchKeyAppend must return exactly the
// inserted entries with the probed key and extend (not clobber) the
// caller's slice.
func TestSearchKeyAppendFallback(t *testing.T) {
	for _, c := range fallbackTables {
		t.Run(c.name, func(t *testing.T) {
			ix := c.mk(indextest.Config(false, 4))
			all := fillHashed(t, ix, 2000, 5) // keys 0..399 appear 5x, plus singletons
			for _, k := range []int64{0, 17, 399} {
				match := func(e indextest.Entry) bool { return e.Key == k }
				var want []indextest.Entry
				for _, e := range all {
					if match(e) {
						want = append(want, e)
					}
				}

				sentinel := indextest.Entry{Key: -1, ID: -1}
				out := append(make([]indextest.Entry, 0, 1+len(want)), sentinel)
				out = ix.SearchKeyAppend(indextest.HashKey(k), match, out)
				if out[0] != sentinel {
					t.Fatal("SearchKeyAppend clobbered the existing prefix")
				}
				sameEntries(t, "SearchKeyAppend", out[1:], want)
			}
		})
	}
}

// TestGatherFallbackAllocsConstant: the block methods may pay a bounded
// setup cost, but never a per-entry allocation — doubling the table must
// not change the allocation count when the caller supplies the block
// buffer and a presized output slice.
func TestGatherFallbackAllocsConstant(t *testing.T) {
	for _, c := range fallbackTables {
		t.Run(c.name, func(t *testing.T) {
			small := c.mk(indextest.Config(true, 4))
			big := c.mk(indextest.Config(true, 4))
			fillHashed(t, small, 2000, 0)
			fillHashed(t, big, 8000, 0)
			buf := make([]indextest.Entry, 0, 256)
			scanAllocs := func(ix index.Hashed[indextest.Entry]) float64 {
				return testing.AllocsPerRun(10, func() {
					ix.ScanBatches(buf, func(block []indextest.Entry) bool { return true })
				})
			}
			if s, b := scanAllocs(small), scanAllocs(big); b > s {
				t.Fatalf("batched scan allocates per entry: %.0f allocs at 2k rows, %.0f at 8k", s, b)
			}

			out := make([]indextest.Entry, 0, 8)
			k := int64(1234)
			match := func(e indextest.Entry) bool { return e.Key == k }
			if a := testing.AllocsPerRun(10, func() {
				out = big.SearchKeyAppend(indextest.HashKey(k), match, out[:0])
			}); a > 2 {
				t.Fatalf("SearchKeyAppend allocates %.0f per probe with presized out", a)
			}
		})
	}
}
