package linearhash

import (
	"fmt"
	"math/rand"
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
		indextest.HashedOptions{
			ProbeAllocs: 1,
			Validate: func(impl index.Hashed[indextest.Entry]) error {
				return impl.(*Table[indextest.Entry]).checkInvariants()
			},
		})
}

// checkInvariants verifies that every entry is stored in the bucket its
// address function names, and the node count matches reality.
func (t *Table[E]) checkInvariants() error {
	nodes, total := 0, 0
	for i, b := range t.buckets {
		for n := b; n != nil; n = n.next {
			nodes++
			total += len(n.items)
			for _, x := range n.items {
				if t.addr(t.hash(x)) != i {
					return fmt.Errorf("entry in bucket %d addresses to %d", i, t.addr(t.hash(x)))
				}
			}
		}
	}
	if nodes != t.nodes {
		return fmt.Errorf("node counter %d, actual %d", t.nodes, nodes)
	}
	if total != t.size {
		return fmt.Errorf("size %d, actual %d", t.size, total)
	}
	return nil
}

func intTable(nodeSize int, m *meter.Counters) *Table[int64] {
	return New(index.Config[int64]{
		Hash:     func(e int64) uint64 { return indextest.HashKey(e) },
		Eq:       func(a, b int64) bool { return a == b },
		NodeSize: nodeSize,
		Meter:    m,
	})
}

func TestGrowsAndContracts(t *testing.T) {
	tb := intTable(8, nil)
	for i := int64(0); i < 10000; i++ {
		tb.Insert(i)
	}
	grown := len(tb.buckets)
	if grown < 100 {
		t.Fatalf("only %d buckets after 10k inserts", grown)
	}
	if err := tb.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 9900; i++ {
		if !tb.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if len(tb.buckets) >= grown/2 {
		t.Fatalf("buckets did not contract: %d of %d", len(tb.buckets), grown)
	}
	if err := tb.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := int64(9900); i < 10000; i++ {
		if _, ok := tb.SearchKey(indextest.HashKey(i), func(e int64) bool { return e == i }); !ok {
			t.Fatalf("survivor %d lost after contraction", i)
		}
	}
}

func TestUtilizationStaysInBand(t *testing.T) {
	tb := intTable(8, nil)
	rng := rand.New(rand.NewSource(1))
	live := map[int64]bool{}
	for i := 0; i < 20000; i++ {
		k := rng.Int63n(1 << 30)
		if rng.Intn(2) == 0 || len(live) < 100 {
			if !live[k] {
				tb.Insert(k)
				live[k] = true
			}
		} else {
			for d := range live {
				tb.Delete(d)
				delete(live, d)
				break
			}
		}
		if len(live) > 500 && (tb.utilization() > 0.95 || tb.utilization() < 0.35) {
			t.Fatalf("op %d: utilization %.2f escaped the control band", i, tb.utilization())
		}
	}
}

func TestReorganizationChurnAtConstantSize(t *testing.T) {
	// §3.2.2: Linear Hashing "did a significant amount of data
	// reorganization even though the number of elements was relatively
	// constant". Run a 50/50 insert/delete mix at constant size and count
	// data movement; it must far exceed the movement of the operations
	// themselves (1 move per op would be the no-reorg floor).
	var m meter.Counters
	tb := intTable(8, &m)
	var live []int64
	for i := int64(0); i < 5000; i++ {
		tb.Insert(i)
		live = append(live, i)
	}
	m.Reset()
	rng := rand.New(rand.NewSource(7))
	next := int64(5000)
	const ops = 10000
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			tb.Insert(next)
			live = append(live, next)
			next++
		} else {
			j := rng.Intn(len(live))
			tb.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if m.DataMoves < ops*2 {
		t.Fatalf("only %d moves over %d ops — expected churn from utilization chasing", m.DataMoves, ops)
	}
}
