package parallel

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

type queryText string

func (q queryText) String() string { return string(q) }

// TestRunLabelsMorselsWithoutAllocating: under a live Progress, run labels
// its morsels for the profiler from one context built per run, so a warm
// run allocates the same at 8 and at 64 morsels (pprof.Do per morsel cost
// two objects each) — at most the five objects of that context, the run's
// own bookkeeping being recycled — and a goroutine profile taken inside a
// morsel shows the query and operator labels.
func TestRunLabelsMorselsWithoutAllocating(t *testing.T) {
	p := sched.NewPool(2)
	defer p.Stop()
	sq := sched.NewQuery(p, nil, 0)
	active := obs.NewActiveSet()
	aq := active.Register(queryText("labels"))
	defer active.Deregister(aq)
	pg := aq.Progress()

	var sink atomic.Int64
	body := func(m int, sc *scratch) {
		sc.rows++
		sink.Add(int64(m))
	}
	measure := func(n int) float64 {
		run(sq, pg, "probe", 2, n, body)
		return testing.AllocsPerRun(50, func() { run(sq, pg, "probe", 2, n, body) })
	}
	few, many := measure(8), measure(64)
	t.Logf("labelled run: %.1f allocations at 8 morsels, %.1f at 64", few, many)
	if d := many - few; d > 2 || d < -2 {
		t.Errorf("a labelled run allocates %.1f times at 8 morsels and %.1f at 64", few, many)
	}
	if !raceEnabled && max(few, many) > 5 {
		t.Errorf("a labelled run allocates %.1f times at 8 morsels and %.1f at 64, ceiling 5", few, many)
	}

	var prof bytes.Buffer
	run(sq, pg, "labelcheck", 1, 1, func(int, *scratch) {
		if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{`"mmdb_query":"` + pg.Label() + `"`, `"mmdb_op":"labelcheck"`} {
		if !strings.Contains(prof.String(), want) {
			t.Errorf("a goroutine profile written inside a morsel lacks %s", want)
		}
	}
}
