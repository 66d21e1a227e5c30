package main

import (
	"fmt"
	"math/rand"

	"repro/internal/plan"
	"repro/internal/workload"
)

// Sizes are the table cardinalities at one scale. Scale 1.0 is the
// issue's suite: 500k-row fact and peer, ≈4× every planner crossover
// (128Ki radix/agg, 64Ki sort).
type Sizes struct {
	Fact, Peer, Dim1, Dim2, Dim3, ZBuild int
	GLoDom, GHiDom                       int // group-key domains
}

// radixCrossover is the planner's build-size crossover; zbuild is pinned
// just above it whenever fact is, because the hot-key cliff the Zipf join
// exists to show only occurs on the radix path.
const radixCrossover = plan.DefaultRadixMinBuildRows

func sizesFor(scale float64) Sizes {
	n := func(base, floor int) int {
		v := int(float64(base) * scale)
		if v < floor {
			v = floor
		}
		return v
	}
	s := Sizes{
		Fact: n(500000, 2000), Peer: n(500000, 2000),
		Dim1: n(50000, 200), Dim2: n(1000, 100), Dim3: 100,
		ZBuild: n(150000, 600),
		GLoDom: n(1000, 50), GHiDom: n(250000, 1000),
	}
	if s.Fact > radixCrossover && s.ZBuild < radixCrossover+4096 {
		s.ZBuild = radixCrossover + 4096
	}
	return s
}

// Data is the seeded shared data set, column-wise. Row i of fact has
// id = i; likewise for every other table.
type Data struct {
	Seed  int64
	Scale float64
	Sizes

	P, D1, D2, D3, GLo, GHi, V []int64 // fact columns
	PeerA                      []int64
	Dim1A, Dim2A, Dim3A        []int64
	ZK                         []int64 // zbuild.k, Zipf s=1.2 over peer.id's domain
}

// subRng gives every table its own stream, so adding a column to one
// table never shifts another's values.
func subRng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

func uniformCol(rng *rand.Rand, n, domain int) []int64 {
	c := make([]int64, n)
	for i := range c {
		c[i] = int64(rng.Intn(domain))
	}
	return c
}

// Generate builds the data set for a seed and scale; the same pair gives
// the same bytes.
func Generate(seed int64, scale float64) (*Data, error) {
	s := sizesFor(scale)
	d := &Data{Seed: seed, Scale: scale, Sizes: s}
	r := subRng(seed, 1)
	d.P = uniformCol(r, s.Fact, s.Peer)
	d.D1 = uniformCol(r, s.Fact, s.Dim1)
	d.D2 = uniformCol(r, s.Fact, s.Dim2)
	d.D3 = uniformCol(r, s.Fact, s.Dim3)
	d.GLo = uniformCol(r, s.Fact, s.GLoDom)
	d.GHi = uniformCol(r, s.Fact, s.GHiDom)
	// v is unique so ORDER BY v has exactly one right answer.
	d.V = make([]int64, s.Fact)
	seen := make(map[int64]struct{}, s.Fact)
	for i := range d.V {
		for {
			v := r.Int63n(1 << 40)
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				d.V[i] = v
				break
			}
		}
	}
	d.PeerA = uniformCol(subRng(seed, 2), s.Peer, s.Peer)
	d.Dim1A = uniformCol(subRng(seed, 3), s.Dim1, 1<<20)
	d.Dim2A = uniformCol(subRng(seed, 4), s.Dim2, 1<<20)
	d.Dim3A = uniformCol(subRng(seed, 5), s.Dim3, 1<<20)
	z, err := workload.BuildZipf(workload.ZipfSpec{Cardinality: s.ZBuild, S: 1.2, Domain: s.Peer}, subRng(seed, 6))
	if err != nil {
		return nil, fmt.Errorf("generate zbuild: %w", err)
	}
	d.ZK = z.Values
	return d, nil
}

// mix folds one value into a row hash.
func mix(h uint64, v int64) uint64 {
	h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// rowHash hashes one row's values in column order.
func rowHash(vals ...int64) uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, v := range vals {
		h = mix(h, v)
	}
	return h
}

// Checksum digests every generated column, in a fixed order.
func (d *Data) Checksum() uint64 {
	h := uint64(len(d.P))
	for _, col := range [][]int64{d.P, d.D1, d.D2, d.D3, d.GLo, d.GHi, d.V, d.PeerA, d.Dim1A, d.Dim2A, d.Dim3A, d.ZK} {
		for _, v := range col {
			h = mix(h, v)
		}
	}
	return h
}

// factRow returns fact row i in schema order.
func (d *Data) factRow(i int) [8]int64 {
	return [8]int64{int64(i), d.P[i], d.D1[i], d.D2[i], d.D3[i], d.GLo[i], d.GHi[i], d.V[i]}
}

// rawBytes is the user data a table set holds at 8 bytes per integer
// column — the denominator of space_factor and of
// recovery.disk_bytes_per_user_byte.
func (d *Data) rawBytes(tables tableSet) int64 {
	var b int64
	if tables&tFact != 0 {
		b += int64(d.Fact) * 8 * 8
	}
	if tables&tPeer != 0 {
		b += int64(d.Peer) * 2 * 8
	}
	if tables&tDims != 0 {
		b += int64(d.Dim1+d.Dim2+d.Dim3) * 2 * 8
	}
	if tables&tZBuild != 0 {
		b += int64(d.ZBuild) * 2 * 8
	}
	return b
}

// defaultScale is the scale BENCHMARK.json's command runs at: a 250,000-row
// fact table, ≈2× the radix and aggregation crossovers and ≈4× the sort
// crossover, so the radix and parallel paths run, and small enough that
// three set-ups and a window fit the driver's time budget for one run.
const defaultScale = 0.5
