package main

import (
	"fmt"
	"os"
	"time"

	mmdb "repro"
)

// tableSet selects which shared tables a workload loads.
type tableSet uint8

const (
	tFact tableSet = 1 << iota
	tPeer
	tDims
	tZBuild
	tAll = tFact | tPeer | tDims | tZBuild
)

// Engine is one opened database plus what the harness keeps about it.
type Engine struct {
	db     *mmdb.Database
	dir    string // disk-copy directory; "" when not durable
	tables tableSet
	fact   *mmdb.Table
	// factTuples[i] is the tuple of fact row i, kept for the writers that
	// update through tuple pointers.
	factTuples []*mmdb.Tuple
	closed     bool
}

func intFields(names ...string) []mmdb.Field {
	f := make([]mmdb.Field, len(names))
	for i, n := range names {
		f[i] = mmdb.Field{Name: n, Type: mmdb.TypeInt}
	}
	return f
}

var factCols = []string{"id", "p", "d1", "d2", "d3", "glo", "ghi", "v"}

// declare creates the schema; Recover needs it declared again after a
// reopen.
func declare(db *mmdb.Database, tables tableSet) (map[string]*mmdb.Table, error) {
	out := map[string]*mmdb.Table{}
	add := func(name string, cols ...string) error {
		t, err := db.CreateTable(name, intFields(cols...), "id", mmdb.TTree)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		out[name] = t
		return nil
	}
	if tables&tFact != 0 {
		if err := add("fact", factCols...); err != nil {
			return nil, err
		}
	}
	if tables&tPeer != 0 {
		if err := add("peer", "id", "a"); err != nil {
			return nil, err
		}
	}
	if tables&tDims != 0 {
		for _, n := range []string{"dim1", "dim2", "dim3"} {
			if err := add(n, "id", "a"); err != nil {
				return nil, err
			}
		}
	}
	if tables&tZBuild != 0 {
		if err := add("zbuild", "id", "k"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadBatch is the rows per bulk-load transaction.
const loadBatch = 1000

// bulkLoad inserts n rows through transactions of loadBatch rows and
// returns the created tuples in row order.
func bulkLoad(db *mmdb.Database, t *mmdb.Table, n int, row func(i int, buf []mmdb.Value) []mmdb.Value) ([]*mmdb.Tuple, error) {
	tuples := make([]*mmdb.Tuple, 0, n)
	buf := make([]mmdb.Value, 0, 8)
	for lo := 0; lo < n; lo += loadBatch {
		hi := lo + loadBatch
		if hi > n {
			hi = n
		}
		tx := db.Begin()
		for i := lo; i < hi; i++ {
			if err := tx.Insert(t, row(i, buf[:0])...); err != nil {
				tx.Abort()
				return nil, fmt.Errorf("load %s row %d: %w", t.Name(), i, err)
			}
		}
		ins, err := tx.Commit()
		if err != nil {
			return nil, fmt.Errorf("load %s commit: %w", t.Name(), err)
		}
		tuples = append(tuples, ins...)
	}
	return tuples, nil
}

func pairLoader(col []int64) func(int, []mmdb.Value) []mmdb.Value {
	return func(i int, buf []mmdb.Value) []mmdb.Value {
		return append(buf, mmdb.Int(int64(i)), mmdb.Int(col[i]))
	}
}

// deviceInterval is the active log device's propagation period on the
// durable workload.
const deviceInterval = 50 * time.Millisecond

// openEngine opens a database with default Options and loads the chosen
// tables. With dir set the database is durable and its log device runs from
// the start, folding the load's committed records into the disk copy as
// they come. The harness never calls Checkpoint beside a running device:
// the two both stage a partition image as <image>.tmp, and when they meet
// on a partition one's rename fails — as a Checkpoint error, or as a device
// error that Close reports much later.
func openEngine(d *Data, tables tableSet, dir string) (*Engine, error) {
	opts := mmdb.Options{}
	if dir != "" {
		opts = mmdb.Options{Dir: dir, DeviceInterval: deviceInterval}
	}
	db, err := mmdb.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	e := &Engine{db: db, dir: dir, tables: tables}
	if err := e.load(d); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func (e *Engine) load(d *Data) error {
	ts, err := declare(e.db, e.tables)
	if err != nil {
		return err
	}
	if e.tables&tFact != 0 {
		e.fact = ts["fact"]
		e.factTuples, err = bulkLoad(e.db, e.fact, d.Fact, func(i int, buf []mmdb.Value) []mmdb.Value {
			for _, v := range d.factRow(i) {
				buf = append(buf, mmdb.Int(v))
			}
			return buf
		})
		if err != nil {
			return err
		}
	}
	if e.tables&tPeer != 0 {
		if _, err = bulkLoad(e.db, ts["peer"], d.Peer, pairLoader(d.PeerA)); err != nil {
			return err
		}
	}
	if e.tables&tDims != 0 {
		for _, dim := range []struct {
			name string
			col  []int64
		}{{"dim1", d.Dim1A}, {"dim2", d.Dim2A}, {"dim3", d.Dim3A}} {
			if _, err = bulkLoad(e.db, ts[dim.name], len(dim.col), pairLoader(dim.col)); err != nil {
				return err
			}
		}
	}
	if e.tables&tZBuild != 0 {
		if _, err = bulkLoad(e.db, ts["zbuild"], d.ZBuild, pairLoader(d.ZK)); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the database once; the disk copy, if any, stays for reopen.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	return e.db.Close()
}

// reopenRecovered opens a fresh database over e's disk copy, declares the
// schema and runs Recover(nil). It returns the recovered engine and the
// Recover wall time. e must be closed first.
func (e *Engine) reopenRecovered() (*Engine, time.Duration, error) {
	db, err := mmdb.Open(mmdb.Options{Dir: e.dir})
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	ts, err := declare(db, e.tables)
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	t0 := time.Now()
	if err := db.Recover(nil); err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("recover: %w", err)
	}
	return &Engine{db: db, dir: e.dir, tables: e.tables, fact: ts["fact"]}, time.Since(t0), nil
}

// scratch hands out directories for disk copies under one root, which the
// command keeps under .bench_build/ in the working directory, so nothing is
// written outside the checkout.
type scratch struct {
	root string
	n    int
}

func newScratch(parent string) (*scratch, error) {
	root := fmt.Sprintf("%s/run-%d", parent, os.Getpid())
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir() (string, error) {
	s.n++
	p := fmt.Sprintf("%s/%d", s.root, s.n)
	return p, os.MkdirAll(p, 0o755)
}

func (s *scratch) remove() { os.RemoveAll(s.root) }
