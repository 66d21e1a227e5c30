package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	mmdb "repro"
)

// Span is one timed interval at a layer boundary. Spans of one op share
// OpID; Parent is the span that caused this one (-1 for an op's root).
// Spans are recorded from the harness's side of each call: operator spans
// are rebuilt from the TraceNode tree Analyze returns, laid end to end
// inside the Analyze span, because TraceNode carries a duration but no
// start time.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rows    int    `json:"rows"`
}

func (s Span) dur() int64 { return s.EndNS - s.StartNS }

// Tracer keeps spans in memory until the workload ends.
type Tracer struct {
	epoch time.Time
	Spans []Span
	ops   int
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newOp allocates an op id.
func (t *Tracer) newOp() int { t.ops++; return t.ops - 1 }

// add records a finished span and returns its id.
func (t *Tracer) add(parent, op int, layer, name string, start, end int64, rows int) int {
	id := len(t.Spans)
	t.Spans = append(t.Spans, Span{ID: id, Parent: parent, OpID: op, Layer: layer, Name: name, StartNS: start, EndNS: end, Rows: rows})
	return id
}

// begin opens a span; end closes it.
func (t *Tracer) begin(parent, op int, layer, name string) int {
	return t.add(parent, op, layer, name, t.now(), -1, 0)
}

func (t *Tracer) end(id, rows int) {
	t.Spans[id].EndNS = t.now()
	t.Spans[id].Rows = rows
}

// operatorLayer names the package an executed operator's time belongs to.
func operatorLayer(n *mmdb.TraceNode) string {
	path := strings.ToLower(n.AccessPath)
	switch n.Op {
	case "group":
		return "agg"
	case "order":
		return "sortkey"
	case "join", "distinct":
		if strings.Contains(path, "radix") {
			return "radix"
		}
	}
	if n.Workers > 1 {
		return "parallel"
	}
	return "exec"
}

// addOperators lays the children of a trace node end to end from start,
// clamped to end, so spans nest even when a parallel operator's Wall
// overlaps its sibling's.
func (t *Tracer) addOperators(parent, op int, nodes []*mmdb.TraceNode, start, end int64) {
	at := start
	for _, n := range nodes {
		stop := at + int64(n.Wall)
		if stop > end {
			stop = end
		}
		id := t.add(parent, op, operatorLayer(n), n.Op, at, stop, n.RowsOut)
		t.addOperators(id, op, n.Children, at, stop)
		at = stop
	}
}

// operatorWall sums the Wall of a query's top-level operators; nested
// operators run inside their parent's Wall.
func operatorWall(tr *mmdb.QueryTrace) time.Duration {
	var sum time.Duration
	if tr == nil || tr.Root == nil {
		return 0
	}
	for _, c := range tr.Root.Children {
		sum += c.Wall
	}
	return sum
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func selfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// checkNesting reports the first span that leaves its parent, has negative
// self time, or does not share its parent's op.
func checkNesting(spans []Span) error {
	for i, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.OpID != p.OpID {
			return fmt.Errorf("span %d has op %d, its parent has op %d", i, s.OpID, p.OpID)
		}
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("span %d (%s) has self time %d ns", i, spans[i].Name, v)
		}
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
