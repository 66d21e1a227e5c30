package main

import (
	"fmt"
	"math/rand"
	"sort"

	mmdb "repro"
)

// kindID names one statement or query shape of the suite. Every per-kind
// number the harness prints is keyed by kindNames.
type kindID int

const (
	kPoint kindID = iota
	kRange100
	kInsert
	kDelete
	kJoinUniform
	kJoinZipf
	kStar4
	kScanFilter
	kGroupLo
	kGroupHi
	kOrderFull
	kTopK
	kDistinct
	kSnapGroup
	kLockedRange
	numKinds
	// kTable is the whole-table read the final checks make; it is not a
	// kind of the suite and has no per-kind metric.
	kTable = numKinds
)

func (k kindID) String() string {
	if k == kTable {
		return "table"
	}
	return kindNames[k]
}

var kindNames = [numKinds]string{
	"point", "range100", "insert", "delete",
	"join_uniform", "join_zipf", "star4",
	"scan_filter", "group_lo", "group_hi", "order_full", "topk", "distinct",
	"snap_group", "locked_range",
}

// kindMicros marks the kinds reported in microseconds; the rest are in
// milliseconds.
var kindMicros = [numKinds]bool{kPoint: true, kRange100: true, kInsert: true, kDelete: true, kLockedRange: true}

// Expect is what the oracle says one op must return.
type Expect struct {
	Rows     int
	Sum      uint64 // Σ rowHash over the rows, or the sequence hash when Ordered
	Ordered  bool
	Affected int // DML: rows affected
	// Check, when set, replaces the Rows/Sum comparison.
	Check func(res *mmdb.Result) error
}

// Op is one executable unit: a SQL statement for db.Exec, or a fluent
// query. Every SELECT carries its fluent form, which the traced run feeds
// to Explain and Analyze.
type Op struct {
	Kind  kindID
	SQL   string
	Query func(db *mmdb.Database) *mmdb.Query
	Want  Expect
}

// seqHash folds a row hash into an order-dependent sequence hash.
func seqHash(h, row uint64) uint64 { return h*0x100000001B3 + row }

// digest reduces a result to (rows, hash) the way Expect states it.
func digest(res *mmdb.Result, ordered bool) (int, uint64, error) {
	var h uint64
	var vals [8]int64
	n := res.Len()
	for i := 0; i < n; i++ {
		row := res.Row(i)
		if len(row) > len(vals) {
			return 0, 0, fmt.Errorf("row %d has %d columns", i, len(row))
		}
		for c, v := range row {
			if v.Type() != mmdb.TypeInt {
				return 0, 0, fmt.Errorf("row %d column %d is %s, want INT", i, c, v.Type())
			}
			vals[c] = v.Int()
		}
		rh := rowHash(vals[:len(row)]...)
		if ordered {
			h = seqHash(h, rh)
		} else {
			h += rh
		}
	}
	return n, h, nil
}

// verify checks a SELECT result against the oracle.
func verify(res *mmdb.Result, want Expect) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if want.Check != nil {
		return want.Check(res)
	}
	if res.Len() != want.Rows {
		return fmt.Errorf("got %d rows, want %d", res.Len(), want.Rows)
	}
	_, h, err := digest(res, want.Ordered)
	if err != nil {
		return err
	}
	if h != want.Sum {
		return fmt.Errorf("checksum %#x, want %#x over %d rows", h, want.Sum, want.Rows)
	}
	return nil
}

// Oracle computes, by naive Go over the generated slices, what each
// read-only query of the suite must return on the freshly loaded data.
type Oracle struct {
	d    *Data
	want [numKinds]Expect
}

func newOracle(d *Data) *Oracle {
	o := &Oracle{d: d}
	var e Expect

	e = Expect{}
	for i := 0; i < d.Fact; i++ {
		e.Rows++
		e.Sum += rowHash(int64(i), d.PeerA[d.P[i]])
	}
	o.want[kJoinUniform] = e

	// peer.id is unique, so every zbuild row matches exactly one peer row.
	peerA := make(map[int64]int64, d.Peer)
	for id, a := range d.PeerA {
		peerA[int64(id)] = a
	}
	e = Expect{}
	for zid, k := range d.ZK {
		if a, ok := peerA[k]; ok {
			e.Rows++
			e.Sum += rowHash(a, int64(zid))
		}
	}
	o.want[kJoinZipf] = e

	e = Expect{}
	for i := 0; i < d.Fact; i++ {
		e.Rows++
		e.Sum += rowHash(int64(i), d.Dim1A[d.D1[i]], d.Dim2A[d.D2[i]], d.Dim3A[d.D3[i]])
	}
	o.want[kStar4] = e

	e = Expect{}
	for i := 0; i < d.Fact; i++ {
		if d.GLo[i] == scanFilterKey {
			e.Rows++
			e.Sum += rowHash(int64(i), d.V[i])
		}
	}
	o.want[kScanFilter] = e

	o.want[kGroupLo] = groupExpect(d.GLo, d.V)
	o.want[kGroupHi] = groupExpect(d.GHi, d.V)

	byV := make([]int, d.Fact)
	for i := range byV {
		byV[i] = i
	}
	sort.Slice(byV, func(a, b int) bool { return d.V[byV[a]] < d.V[byV[b]] })
	e = Expect{Ordered: true}
	for n, i := range byV {
		e.Sum = seqHash(e.Sum, rowHash(int64(i), d.V[i]))
		e.Rows++
		if n+1 == topK {
			o.want[kTopK] = e
		}
	}
	o.want[kOrderFull] = e

	set := map[int64]struct{}{}
	for _, v := range d.D1 {
		set[v] = struct{}{}
	}
	e = Expect{Rows: len(set)}
	for v := range set {
		e.Sum += rowHash(v)
	}
	o.want[kDistinct] = e
	return o
}

func groupExpect(key, val []int64) Expect {
	type cell struct{ n, sum int64 }
	groups := map[int64]*cell{}
	for i, k := range key {
		c := groups[k]
		if c == nil {
			c = &cell{}
			groups[k] = c
		}
		c.n++
		c.sum += val[i]
	}
	e := Expect{Rows: len(groups)}
	for k, c := range groups {
		e.Sum += rowHash(k, c.n, c.sum)
	}
	return e
}

const (
	scanFilterKey = 7
	topK          = 10
	rangeLen      = 100
)

func groupBy(col string) func(*mmdb.Database) *mmdb.Query {
	return func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").GroupBy(col).Agg(mmdb.AggCount, "*").Agg(mmdb.AggSum, "v")
	}
}

// olapQueries are the fluent forms of the read-only analytical kinds.
var olapQueries = map[kindID]func(*mmdb.Database) *mmdb.Query{
	kJoinUniform: func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Join("peer", "fact.p", "id").Select("fact.id", "peer.a")
	},
	// peer is written first so the planner builds on the skewed zbuild.k.
	kJoinZipf: func(db *mmdb.Database) *mmdb.Query {
		return db.Query("peer").Join("zbuild", "peer.id", "k").Select("peer.a", "zbuild.id")
	},
	kStar4: func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Join("dim1", "fact.d1", "id").Join("dim2", "fact.d2", "id").
			Join("dim3", "fact.d3", "id").Select("fact.id", "dim1.a", "dim2.a", "dim3.a")
	},
	kScanFilter: func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Where("glo", mmdb.Eq, mmdb.Int(scanFilterKey)).Select("id", "v")
	},
	kGroupLo: groupBy("glo"),
	kGroupHi: groupBy("ghi"),
	kOrderFull: func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Select("id", "v").OrderBy("v", false)
	},
	kTopK: func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Select("id", "v").OrderBy("v", false).Limit(topK)
	},
	kDistinct: func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Select("d1").Distinct()
	},
}

// op returns the read-only analytical op of a kind with its expectation.
func (o *Oracle) op(k kindID) *Op {
	return &Op{Kind: k, Query: olapQueries[k], Want: o.want[k]}
}

func pointQuery(id int64) func(*mmdb.Database) *mmdb.Query {
	return func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Where("id", mmdb.Eq, mmdb.Int(id)).Select("id", "v")
	}
}

func rangeQuery(lo int64, cols ...string) func(*mmdb.Database) *mmdb.Query {
	return func(db *mmdb.Database) *mmdb.Query {
		return db.Query("fact").Where("id", mmdb.Ge, mmdb.Int(lo)).Where("id", mmdb.Lt, mmdb.Int(lo+rangeLen)).Select(cols...)
	}
}

// Shadow is the harness's copy of fact's committed state after DML: the
// generated rows, minus deletes, plus inserts, with v overridden by
// updates. The statement generator and the update writer both write it;
// they never run at the same time.
type Shadow struct {
	d     *Data
	dead  map[int64]struct{} // deleted generated rows
	v     map[int64]int64    // v overrides of generated rows
	added map[int64][8]int64 // inserted rows still alive
	addID []int64            // keys of added, for uniform picks
	addAt map[int64]int      // position in addID
	next  int64              // next fresh id
}

func newShadow(d *Data) *Shadow {
	return &Shadow{d: d, dead: map[int64]struct{}{}, v: map[int64]int64{}, added: map[int64][8]int64{},
		addAt: map[int64]int{}, next: int64(d.Fact)}
}

// row returns the live row with the id, if any.
func (s *Shadow) row(id int64) ([8]int64, bool) {
	if id >= int64(s.d.Fact) {
		r, ok := s.added[id]
		return r, ok
	}
	if id < 0 {
		return [8]int64{}, false
	}
	if _, gone := s.dead[id]; gone {
		return [8]int64{}, false
	}
	r := s.d.factRow(int(id))
	if v, ok := s.v[id]; ok {
		r[7] = v
	}
	return r, true
}

// alive reports whether the id is live. It reads only what DML statements
// change, so a reader may call it while the update writer runs.
func (s *Shadow) alive(id int64) bool {
	if id >= int64(s.d.Fact) {
		_, ok := s.added[id]
		return ok
	}
	_, gone := s.dead[id]
	return id >= 0 && !gone
}

func (s *Shadow) liveCount() int { return s.d.Fact - len(s.dead) + len(s.added) }

// pick returns a uniformly chosen live id.
func (s *Shadow) pick(rng *rand.Rand) int64 {
	for {
		r := rng.Intn(s.d.Fact + len(s.addID))
		if r >= s.d.Fact {
			return s.addID[r-s.d.Fact]
		}
		if _, gone := s.dead[int64(r)]; !gone {
			return int64(r)
		}
	}
}

func (s *Shadow) insert(r [8]int64) {
	s.added[r[0]] = r
	s.addAt[r[0]] = len(s.addID)
	s.addID = append(s.addID, r[0])
}

func (s *Shadow) remove(id int64) {
	if id < int64(s.d.Fact) {
		s.dead[id] = struct{}{}
		delete(s.v, id)
		return
	}
	at := s.addAt[id]
	last := s.addID[len(s.addID)-1]
	s.addID[at] = last
	s.addAt[last] = at
	s.addID = s.addID[:len(s.addID)-1]
	delete(s.addAt, id)
	delete(s.added, id)
}

// table is the expectation for SELECT * FROM fact.
func (s *Shadow) table() Expect {
	var e Expect
	for i := 0; i < s.d.Fact; i++ {
		if r, ok := s.row(int64(i)); ok {
			e.Rows++
			e.Sum += rowHash(r[:]...)
		}
	}
	for _, r := range s.added {
		e.Rows++
		e.Sum += rowHash(r[:]...)
	}
	return e
}

// rangeExpect is the expectation for SELECT id, v over [lo, lo+rangeLen).
func (s *Shadow) rangeExpect(lo int64) Expect {
	var e Expect
	for id := lo; id < lo+rangeLen; id++ {
		if r, ok := s.row(id); ok {
			e.Rows++
			e.Sum += rowHash(r[0], r[7])
		}
	}
	return e
}

// stmtGen emits the oltp_point statement stream: the paper's Graph 2
// 60/20/20 search/insert/delete mix, with the searches split 50 % point
// and 10 % 100-row range. Every statement succeeds and has exactly one
// right answer, which the generator takes from the shadow as it goes.
type stmtGen struct {
	rng *rand.Rand
	s   *Shadow
	n   int // statements of the mix emitted
}

func newStmtGen(seed int64, s *Shadow) *stmtGen {
	return &stmtGen{rng: subRng(seed, 20), s: s}
}

// nextOf emits the next statement of the given kind and applies its
// effect to the shadow.
func (g *stmtGen) nextOf(k kindID) *Op {
	d := g.s.d
	switch k {
	case kPoint:
		id := g.s.pick(g.rng)
		r, _ := g.s.row(id)
		return &Op{Kind: kPoint, SQL: fmt.Sprintf("SELECT id, v FROM fact WHERE id = %d", id),
			Query: pointQuery(id), Want: Expect{Rows: 1, Sum: rowHash(r[0], r[7])}}
	case kRange100:
		lo := int64(g.rng.Intn(d.Fact - rangeLen))
		return &Op{Kind: kRange100, SQL: fmt.Sprintf("SELECT id, v FROM fact WHERE id >= %d AND id < %d", lo, lo+rangeLen),
			Query: rangeQuery(lo, "id", "v"), Want: g.s.rangeExpect(lo)}
	case kInsert:
		r := [8]int64{g.s.next, int64(g.rng.Intn(d.Peer)), int64(g.rng.Intn(d.Dim1)), int64(g.rng.Intn(d.Dim2)),
			int64(g.rng.Intn(d.Dim3)), int64(g.rng.Intn(d.GLoDom)), int64(g.rng.Intn(d.GHiDom)), g.rng.Int63n(1 << 40)}
		g.s.next++
		g.s.insert(r)
		return &Op{Kind: kInsert, Want: Expect{Affected: 1},
			SQL: fmt.Sprintf("INSERT INTO fact VALUES (%d, %d, %d, %d, %d, %d, %d, %d)", r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7])}
	default:
		id := g.s.pick(g.rng)
		g.s.remove(id)
		return &Op{Kind: kDelete, SQL: fmt.Sprintf("DELETE FROM fact WHERE id = %d", id), Want: Expect{Affected: 1}}
	}
}

// mixCycle is the statement mix as a fixed cycle of ten: five point
// selects, one range, two inserts, two deletes. A drawn mix would add the
// sampling noise of its own proportions to every throughput number; the
// seed still chooses every key and value.
var mixCycle = [10]kindID{kPoint, kInsert, kPoint, kDelete, kPoint, kRange100, kPoint, kInsert, kPoint, kDelete}

// next emits the next statement of the mix.
func (g *stmtGen) next() *Op {
	k := mixCycle[g.n%len(mixCycle)]
	g.n++
	return g.nextOf(k)
}

// tableOp reads the whole fact table, to be compared with the shadow.
func (s *Shadow) tableOp() *Op {
	return &Op{Kind: kTable, Query: func(db *mmdb.Database) *mmdb.Query { return db.Query("fact") }, Want: s.table()}
}
