package exthash

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.RunHashed(t,
		func(cfg index.Config[indextest.Entry]) index.Hashed[indextest.Entry] {
			return New(cfg)
		},
		indextest.HashedOptions{
			ProbeAllocs: 1,
			Validate: func(impl index.Hashed[indextest.Entry]) error {
				return impl.(*Table[indextest.Entry]).checkInvariants()
			},
		})
}

// checkInvariants verifies directory aliasing: every slot points at a
// bucket whose local depth bits match the slot index.
func (t *Table[E]) checkInvariants() error {
	for i, b := range t.dir {
		if b == nil {
			return errf("nil bucket at slot %d", i)
		}
		if b.local > t.global {
			return errf("bucket local depth %d exceeds global %d", b.local, t.global)
		}
		canon := int(uint64(i) & ((1 << b.local) - 1))
		if t.dir[canon] != b {
			return errf("slot %d and its canonical alias %d disagree", i, canon)
		}
	}
	if len(t.dir) != 1<<t.global {
		return errf("directory size %d != 2^%d", len(t.dir), t.global)
	}
	return nil
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

func intTable(nodeSize int) *Table[int64] {
	return New(index.Config[int64]{
		Hash:     func(e int64) uint64 { return indextest.HashKey(e) },
		Eq:       func(a, b int64) bool { return a == b },
		NodeSize: nodeSize,
	})
}

func TestDirectoryDoubles(t *testing.T) {
	tb := intTable(4)
	for i := int64(0); i < 10000; i++ {
		tb.Insert(i)
	}
	if tb.GlobalDepth() < 8 {
		t.Fatalf("directory depth %d too shallow for 10k entries at node size 4", tb.GlobalDepth())
	}
	if err := tb.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMassDuplicatesDoNotBlowUpDirectory(t *testing.T) {
	// 20k hash-identical entries (duplicate join keys) must not double the
	// directory to its cap; the bucket overflows in place instead.
	tb := New(index.Config[int64]{
		Hash:     func(e int64) uint64 { return 42 }, // all collide
		Eq:       func(a, b int64) bool { return a == b },
		NodeSize: 4,
	})
	for i := int64(0); i < 20000; i++ {
		tb.Insert(i)
	}
	if tb.GlobalDepth() > 4 {
		t.Fatalf("duplicates drove directory to depth %d", tb.GlobalDepth())
	}
	if n := len(tb.SearchKeyAppend(42, func(int64) bool { return true }, nil)); n != 20000 {
		t.Fatalf("found %d of 20000 colliding entries", n)
	}
}

func TestSmallNodesInflateStorage(t *testing.T) {
	// §3.2.2: extendible hashing "tended to use the largest amount of
	// storage for small node sizes" because unlucky buckets double the
	// whole directory.
	small := intTable(2)
	large := intTable(50)
	for i := int64(0); i < 30000; i++ {
		small.Insert(i)
		large.Insert(i)
	}
	fs := index.PaperModel.Factor(small.Stats())
	fl := index.PaperModel.Factor(large.Stats())
	if fs <= fl {
		t.Fatalf("small-node factor %.2f not larger than large-node %.2f", fs, fl)
	}
}
