package index_test

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/index/avltree"
	"repro/internal/index/btree"
	"repro/internal/index/chainhash"
	"repro/internal/index/exthash"
	"repro/internal/index/indextest"
	"repro/internal/index/linearhash"
	"repro/internal/index/mlh"
	"repro/internal/index/sortedarray"
	"repro/internal/index/ttree"
	"repro/internal/meter"
)

// pinned holds the §3.1 counts of each kind's probes and full scan over
// pinInput, recorded from the per-entry forms (SearchAll, SearchKeyAll,
// ScanAsc, Scan, each run to the end) before the block forms replaced
// them. The block forms must record exactly these counts: the paper's
// validation (§3.1) and every EXPERIMENTS.md comparison count read them.
var pinned = []struct {
	kind        string
	nodeSize    int
	op          string
	nodes, cmps int64
	entries     int
}{
	{"array", 4, "hit", 0, 8, 1},
	{"array", 4, "miss", 0, 8, 0},
	{"array", 4, "dups", 0, 8, 41},
	{"array", 4, "scan", 0, 0, 240},
	{"avl", 4, "hit", 8, 8, 1},
	{"avl", 4, "miss", 8, 8, 0},
	{"avl", 4, "dups", 8, 8, 41},
	{"avl", 4, "scan", 0, 0, 240},
	{"btree", 4, "hit", 4, 9, 1},
	{"btree", 4, "miss", 4, 10, 0},
	{"btree", 4, "dups", 4, 9, 41},
	{"btree", 4, "scan", 0, 0, 240},
	{"ttree", 4, "hit", 6, 12, 1},
	{"ttree", 4, "miss", 5, 11, 0},
	{"ttree", 4, "dups", 5, 9, 41},
	{"ttree", 4, "scan", 0, 0, 240},
	{"chainhash", 4, "hit", 3, 10, 1},
	{"chainhash", 4, "miss", 2, 6, 0},
	{"chainhash", 4, "dups", 11, 44, 41},
	{"chainhash", 4, "scan", 0, 0, 240},
	{"exthash", 4, "hit", 1, 4, 1},
	{"exthash", 4, "miss", 1, 4, 0},
	{"exthash", 4, "dups", 1, 44, 41},
	{"exthash", 4, "scan", 0, 0, 240},
	{"linearhash", 4, "hit", 2, 6, 1},
	{"linearhash", 4, "miss", 2, 6, 0},
	{"linearhash", 4, "dups", 11, 44, 41},
	{"linearhash", 4, "scan", 0, 0, 240},
	{"mlh", 4, "hit", 6, 6, 1},
	{"mlh", 4, "miss", 4, 4, 0},
	{"mlh", 4, "dups", 42, 42, 41},
	{"mlh", 4, "scan", 0, 0, 240},
	{"array", 16, "hit", 0, 8, 1},
	{"array", 16, "miss", 0, 8, 0},
	{"array", 16, "dups", 0, 8, 41},
	{"array", 16, "scan", 0, 0, 240},
	{"avl", 16, "hit", 8, 8, 1},
	{"avl", 16, "miss", 8, 8, 0},
	{"avl", 16, "dups", 8, 8, 41},
	{"avl", 16, "scan", 0, 0, 240},
	{"btree", 16, "hit", 3, 8, 1},
	{"btree", 16, "miss", 3, 9, 0},
	{"btree", 16, "dups", 3, 9, 41},
	{"btree", 16, "scan", 0, 0, 240},
	{"ttree", 16, "hit", 4, 10, 1},
	{"ttree", 16, "miss", 4, 10, 0},
	{"ttree", 16, "dups", 4, 10, 41},
	{"ttree", 16, "scan", 0, 0, 240},
	{"chainhash", 16, "hit", 2, 21, 1},
	{"chainhash", 16, "miss", 2, 28, 0},
	{"chainhash", 16, "dups", 4, 59, 41},
	{"chainhash", 16, "scan", 0, 0, 240},
	{"exthash", 16, "hit", 1, 14, 1},
	{"exthash", 16, "miss", 1, 9, 0},
	{"exthash", 16, "dups", 1, 41, 41},
	{"exthash", 16, "scan", 0, 0, 240},
	{"linearhash", 16, "hit", 1, 14, 1},
	{"linearhash", 16, "miss", 2, 28, 0},
	{"linearhash", 16, "dups", 3, 46, 41},
	{"linearhash", 16, "scan", 0, 0, 240},
	{"mlh", 16, "hit", 14, 14, 1},
	{"mlh", 16, "miss", 28, 28, 0},
	{"mlh", 16, "dups", 46, 46, 41},
	{"mlh", 16, "scan", 0, 0, 240},
}

// pinInput is 200 distinct even keys plus 40 more copies of key 154, in a
// fixed shuffled order: "hit" probes key 246, "miss" the absent key 101,
// "dups" the 41-entry run of key 154, and "scan" reads all 240 entries.
func pinInput() []indextest.Entry {
	var es []indextest.Entry
	for i := int64(0); i < 200; i++ {
		es = append(es, indextest.Entry{Key: 2 * i, ID: i})
	}
	for i := int64(0); i < 40; i++ {
		es = append(es, indextest.Entry{Key: 154, ID: 1000 + i})
	}
	rand.New(rand.NewSource(1986)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

var pinKeys = map[string]int64{"hit": 246, "miss": 101, "dups": 154}

// pinIndex is one kind under the pin: its probe for key k and its scan.
type pinIndex struct {
	probe func(k int64) int
	scan  func() int
}

func pinIndexOf(kind string, cfg index.Config[indextest.Entry]) pinIndex {
	var o index.Ordered[indextest.Entry]
	var h index.Hashed[indextest.Entry]
	switch kind {
	case "array":
		o = sortedarray.New(cfg)
	case "avl":
		o = avltree.New(cfg)
	case "btree":
		o = btree.New(cfg)
	case "ttree":
		o = ttree.New(cfg)
	case "chainhash":
		h = chainhash.New(cfg)
	case "exthash":
		h = exthash.New(cfg)
	case "linearhash":
		h = linearhash.New(cfg)
	case "mlh":
		h = mlh.New(cfg)
	}
	if o != nil {
		for _, e := range pinInput() {
			o.Insert(e)
		}
		return pinIndex{
			probe: func(k int64) int {
				return len(o.SearchAllAppend(func(e indextest.Entry) int { return indextest.Cmp(e, indextest.Entry{Key: k}) }, nil))
			},
			scan: func() int { return scanCount(o.ScanBatches) },
		}
	}
	for _, e := range pinInput() {
		h.Insert(e)
	}
	return pinIndex{
		probe: func(k int64) int {
			return len(h.SearchKeyAppend(indextest.HashKey(k), func(e indextest.Entry) bool { return e.Key == k }, nil))
		},
		scan: func() int { return scanCount(h.ScanBatches) },
	}
}

func scanCount(scan func([]indextest.Entry, func([]indextest.Entry) bool)) int {
	n := 0
	scan(nil, func(block []indextest.Entry) bool { n += len(block); return true })
	return n
}

// TestBlockFormsMeterAsPinned: every kind's SearchAllAppend or
// SearchKeyAppend, and its ScanBatches, record the pinned AddNode and
// AddCompare totals at two node sizes.
func TestBlockFormsMeterAsPinned(t *testing.T) {
	for _, p := range pinned {
		var m meter.Counters
		cfg := indextest.Config(false, p.nodeSize)
		cfg.CapacityHint = 240
		cfg.Meter = &m
		ix := pinIndexOf(p.kind, cfg)
		m.Reset()
		var n int
		if p.op == "scan" {
			n = ix.scan()
		} else {
			n = ix.probe(pinKeys[p.op])
		}
		if m.NodesVisited != p.nodes || m.Comparisons != p.cmps || n != p.entries {
			t.Errorf("%s ns=%d %s: node=%d cmp=%d entries=%d, pinned node=%d cmp=%d entries=%d",
				p.kind, p.nodeSize, p.op, m.NodesVisited, m.Comparisons, n, p.nodes, p.cmps, p.entries)
		}
	}
}
