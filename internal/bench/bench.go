// Package bench regenerates every table and figure of the paper's
// evaluation (§3): the index study (Graphs 1-2, the storage-cost summary,
// Table 1), the duplicate-distribution curve (Graph 3), the six join tests
// (Graphs 4-9), the nested-loops baseline (Graph 10), the projection tests
// (Graphs 11-12), and ablations for the design choices the paper calls
// out. Absolute times differ from the 1986 VAX 11/750, but the shapes —
// who wins, by what factor, where the crossovers fall — are the
// reproduction target.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/storage"
)

// Env parameterizes an experiment run.
type Env struct {
	// Scale multiplies the paper's cardinalities (1.0 = 30,000-element
	// indices and full-size join relations).
	Scale float64
	// Seed drives all workload generation.
	Seed int64
}

// N scales a paper cardinality, with a floor of 16.
func (e Env) N(base int) int {
	s := e.Scale
	if s <= 0 {
		s = 1
	}
	n := int(float64(base) * s)
	if n < 16 {
		n = 16
	}
	return n
}

// Rng returns the experiment's seeded random source.
func (e Env) Rng() *rand.Rand { return rand.New(rand.NewSource(e.Seed + 1)) }

// Point is one x position of a series with one y value per curve
// (NaN = not measured at this x).
type Point struct {
	X string
	Y []float64
}

// Series is one exhibit: a set of named curves over common x positions.
type Series struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Names  []string
	Points []Point
	Notes  []string
}

// Add appends a point.
func (s *Series) Add(x string, ys ...float64) {
	s.Points = append(s.Points, Point{X: x, Y: ys})
}

// Format renders the series as an aligned text table.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.ID, s.Title)
	fmt.Fprintf(&b, "  y: %s\n", s.YLabel)
	w := len(s.XLabel)
	for _, p := range s.Points {
		if len(p.X) > w {
			w = len(p.X)
		}
	}
	fmt.Fprintf(&b, "  %-*s", w+2, s.XLabel)
	for _, n := range s.Names {
		fmt.Fprintf(&b, " %14s", n)
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "  %-*s", w+2, p.X)
		for i := range s.Names {
			v := math.NaN()
			if i < len(p.Y) {
				v = p.Y[i]
			}
			if math.IsNaN(v) {
				fmt.Fprintf(&b, " %14s", "-")
			} else {
				fmt.Fprintf(&b, " %14s", formatY(v))
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range s.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func formatY(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	case math.Abs(v) >= 0.001:
		return fmt.Sprintf("%.6f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// timeIt measures one execution of f in seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// timeBest measures f, repeating up to three times while runs stay under
// 100ms, and returns the fastest run.
func timeBest(f func()) float64 {
	best := timeIt(f)
	for rep := 0; rep < 2 && best < 0.1; rep++ {
		if t := timeIt(f); t < best {
			best = t
		}
	}
	return best
}

// intSchema is the single-column test relation layout: the indices hold
// tuple pointers and dereference this field, exactly the "main memory
// style" of §3.2.2.
func intSchema() *storage.Schema {
	return storage.MustSchema(storage.FieldDef{Name: "val", Type: storage.Int})
}

// buildRelation creates a relation holding the values and returns its
// tuples in insertion order.
func buildRelation(name string, values []int64) []*storage.Tuple {
	rel, err := storage.NewRelation(name, intSchema(), storage.Config{}, storage.NewIDGen())
	if err != nil {
		panic(err)
	}
	tuples := make([]*storage.Tuple, len(values))
	for i, v := range values {
		tp, err := rel.Insert([]storage.Value{storage.IntValue(v)})
		if err != nil {
			panic(err)
		}
		tuples[i] = tp
	}
	return tuples
}

// Experiment is a runnable exhibit reproduction.
type Experiment struct {
	ID      string
	Exhibit string // the paper's table/figure name
	Run     func(Env) []Series
}

// RunStats is the per-experiment metric snapshot the harness emits
// alongside each exhibit: wall time plus Go runtime deltas over the run.
// Experiments exercise raw index and operator structures (no Database),
// so runtime counters — allocations, bytes, GC cycles — are the
// engine-wide signal here; the per-operation §3.1 counters appear inside
// the series that use them.
type RunStats struct {
	Wall   time.Duration
	Allocs uint64 // heap objects allocated during the run
	Bytes  uint64 // bytes allocated during the run
	GCs    uint32 // GC cycles completed during the run
}

// String renders the snapshot as a compact single line.
func (s RunStats) String() string {
	return fmt.Sprintf("wall=%v allocs=%d bytes=%d gcs=%d",
		s.Wall.Round(time.Millisecond), s.Allocs, s.Bytes, s.GCs)
}

// Measure runs the experiment and captures its metric snapshot.
func Measure(e Experiment, env Env) ([]Series, RunStats) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	series := e.Run(env)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return series, RunStats{
		Wall:   wall,
		Allocs: after.Mallocs - before.Mallocs,
		Bytes:  after.TotalAlloc - before.TotalAlloc,
		GCs:    after.NumGC - before.NumGC,
	}
}

// CSV renders the series as comma-separated values for external plotting:
// a header of x plus curve names, then one line per point.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString("x")
	for _, n := range s.Names {
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(n, ",", ";"))
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		b.WriteString(strings.ReplaceAll(p.X, ",", ";"))
		for i := range s.Names {
			b.WriteByte(',')
			if i < len(p.Y) && !math.IsNaN(p.Y[i]) {
				fmt.Fprintf(&b, "%g", p.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
