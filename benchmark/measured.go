package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupResult is one timed set-up: open, load with its index build (into
// a running log device when durable; engine.go says why no Checkpoint), and
// one warm-up round, which pays whatever the engine sets up lazily on first
// use (statistics, snapshot publication).
type setupResult struct {
	in   *instance
	took time.Duration
}

// heapAlloc is the live heap. It collects twice: the first collection only
// moves sync.Pool contents to the victim cache.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// setUp builds one instance of the workload over the given tables and runs
// warmOps ops of it.
func setUp(def *workloadDef, tables tableSet, d *Data, o *Oracle, sc *scratch, warmOps int) (setupResult, error) {
	var r setupResult
	dir := ""
	if def.durable {
		var err error
		if dir, err = sc.dir(); err != nil {
			return r, err
		}
	}
	t0 := time.Now()
	e, err := openEngine(d, tables, dir)
	if err != nil {
		return r, err
	}
	r.in = newInstance(def, e, d, o, newShadow(d))
	warm := r.in.run(&executor{e: e, verify: true}, forOps(warmOps))
	r.took = time.Since(t0)
	if err := warm.err(); err != nil {
		e.Close()
		return r, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perSample folds every n consecutive op times into their mean; a rest
// shorter than n is dropped.
func perSample(lat []time.Duration, n int) []time.Duration {
	if n <= 1 {
		return lat
	}
	out := make([]time.Duration, 0, len(lat)/n)
	for ; len(lat) >= n; lat = lat[n:] {
		var sum time.Duration
		for _, d := range lat[:n] {
			sum += d
		}
		out = append(out, sum/time.Duration(n))
	}
	return out
}

func durMedian(lat []time.Duration) time.Duration {
	f := make([]float64, len(lat))
	for i, d := range lat {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// quantile is the nearest-rank q-quantile of lat.
func quantile(lat []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// setups is how many times a measured run sets the database up.
const setups = 3

// minWindowOps is the fewest foreground ops a measured window may hold;
// below it the medians mean nothing. Rather than refuse the run, an
// instance's share of the window runs on until it holds its part of them.
const minWindowOps = 20

// outcome is what one run of one workload produced.
type outcome struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]Metric  `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // sample count behind each timing
	Extra     map[string]float64 `json:"extra,omitempty"`
}

func (o *outcome) fail(n int, err error) {
	o.Failed += n
	if err != nil && o.FirstErr == "" {
		o.FirstErr = err.Error()
	}
}

// runMeasured is the untraced run. The database is set up cfg.setups times;
// each instance gets an equal share of the measured window, and every
// timing reported is the median over the instances of the instance's own
// number. One process lays its heap out once, and a number measured on one
// instance carries that layout's luck; the median over several does not.
func runMeasured(cfg *config, def *workloadDef, d *Data, sc *scratch) (*outcome, error) {
	var o *Oracle
	if def.round != nil {
		o = newOracle(d)
	}
	out := &outcome{Workload: def.name, Metrics: map[string]Metric{}, Samples: map[string]int{}, Extra: map[string]float64{}}
	count := func(w windowResult) {
		out.Attempted += w.attempted()
		out.fail(w.failed(), w.err())
	}
	var setupS, tput, p50, p99, readTput, writeP50, writeP99, allocs, allocKB, recovers []float64
	var liveBytes int64
	samples, tputSamples := 0, 0
	baseline := heapAlloc()
	share := cfg.window / time.Duration(cfg.setups) // each instance's part of the window
	minOps := (minWindowOps + cfg.setups - 1) / cfg.setups
	for i := 0; i < cfg.setups; i++ {
		s, err := setUp(def, def.tables, d, o, sc, def.warmOps)
		if err != nil {
			return nil, err
		}
		in := s.in
		x := &executor{e: in.e, verify: true}
		if i == 0 {
			// The first set-up starts from a heap holding only the
			// generated data: its growth is the loaded, warmed database.
			// Measuring it empties the scratch pools the warm-up filled,
			// so that round is run again.
			liveBytes = heapAlloc() - baseline
			count(in.run(x, forOps(def.warmOps)))
		}

		runtime.GC()
		win := in.run(x, forDuration(share, minOps))
		count(win)
		setupS = append(setupS, s.took.Seconds())
		// Throughput is counted in the writer's commits where there is a
		// writer, in the foreground client's ops elsewhere.
		tp := &win.fg
		if in.writer != nil {
			tp = &win.writer
			if len(tp.lat) == 0 {
				in.e.Close()
				return nil, fmt.Errorf("%s: the writer committed nothing in a window of %v", def.name, share)
			}
			readTput = append(readTput, float64(len(win.fg.lat))/win.fg.busy().Seconds())
			writeP50 = append(writeP50, durMedian(tp.lat).Seconds()*1e3)
			writeP99 = append(writeP99, quantile(tp.lat, 0.99).Seconds()*1e3)
		}
		tput = append(tput, float64(len(tp.lat))/tp.busy().Seconds())
		p50 = append(p50, durMedian(perSample(win.fg.lat, def.latOps)).Seconds()*1e3)
		p99 = append(p99, quantile(win.fg.lat, 0.99).Seconds()*1e3)
		samples += len(win.fg.lat)
		tputSamples += len(tp.lat)

		// Allocation pass: a fixed op count with checksum verification
		// off, so the deltas are the engine's allocations and not the
		// harness's. No collection is forced first: that would empty the
		// engine's scratch pools. When the collector happened to empty them
		// anyway the pass pays for refilling them, so the number reported
		// is the least over the instances: the warm path, which repeats.
		// A writer commits a fixed number of transactions in the pass, so
		// that the op mix the allocations are divided by is fixed too.
		x.verify = false
		in.writerQuota = def.allocCommits
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		al := in.run(x, forOps(def.allocOps))
		runtime.ReadMemStats(&m1)
		in.writerQuota = 0
		count(al)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(al.attempted()))
		allocKB = append(allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(al.attempted()))

		att, failed, recoverTime, err := in.finalChecks()
		out.Attempted += att
		out.fail(failed, err)
		if def.durable {
			recovers = append(recovers, recoverTime.Seconds())
		}
		in.e.Close()
	}
	put := func(name string, v float64, unit string, n int) {
		out.Metrics[name] = Metric{Value: v, Unit: unit}
		out.Samples[name] = n
	}
	put("allocs_per_op", slices.Min(allocs), "count", def.allocOps)
	put("alloc_kb_per_op", slices.Min(allocKB), "KiB", def.allocOps)
	put("space_factor", float64(liveBytes)/float64(d.rawBytes(def.tables)), "ratio", 1)
	put("setup_s", median(setupS), "s", len(setupS))

	// Numbers that do not repeat from run to run on a shared machine — every
	// timing of the window — exist on one workload only, or are always 0
	// are not end-to-end metrics (README.md has the measured spreads). They
	// are printed and kept in the -out record; the traced run reports the
	// first two as mmdb.ops_per_s and mmdb.lat_p50_ms.
	extra := func(name string, v float64, n int) {
		out.Extra[name] = v
		out.Samples[name] = n
	}
	extra("ops_per_s", median(tput), tputSamples)
	extra("lat_p50_ms", median(p50), samples)
	out.Extra["fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
	out.Extra["peak_rss_mb"] = peakRSSMB()
	extra("lat_p99_ms", median(p99), samples)
	if len(writeP50) > 0 {
		out.Extra["read_ops_per_s"] = median(readTput)
		out.Extra["write_p50_ms"] = median(writeP50)
		out.Extra["write_p99_ms"] = median(writeP99)
	}
	if len(recovers) > 0 {
		out.Extra["recover_s"] = median(recovers)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
