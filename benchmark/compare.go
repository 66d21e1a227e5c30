package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns groups the untraced records of a -out file by workload and
// metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r outcome
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
		for name, v := range r.Extra {
			runs[r.Workload][name] = append(runs[r.Workload][name], v)
		}
	}
	return runs, sc.Err()
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which is
// what the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// compareMain prints one row per workload × end-to-end metric: both
// medians, B÷A with its base, the bound, the wider of the two spreads and a
// verdict; then the same without bound or verdict for the other numbers in
// the records. It exits non-zero when any end-to-end row is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := readRuns(fs.Arg(0))
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRuns(fs.Arg(1)); err == nil {
			return printComparison(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func printComparison(spec *benchSpec, a, b map[string]map[string][]float64) int {
	code := 0
	bounded := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bounded[m.Name] = true
	}
	fmt.Printf("%-14s %-16s %5s %13s %13s %8s %7s %7s  %s\n", "workload", "metric", "runs", "A median", "B median", "B/A", "bound", "spread", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-16s %5s %13s %13s %8s %7.3f %7s  missing\n", w.Name, m.Name, "-", "-", "-", "-", m.Bound, "-")
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			ratio := mb / ma
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			case sp > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-16s %2d/%-2d %13.6g %13.6g %8.4f %7.3f %7.4f  %s\n",
				w.Name, m.Name, len(va), len(vb), ma, mb, ratio, m.Bound, sp, verdict)
		}
		// What the records hold beyond the end-to-end metrics has no bound
		// and gets no verdict; the demoted timings are read here.
		for _, name := range sortedKeys(a[w.Name]) {
			va, vb := a[w.Name][name], b[w.Name][name]
			if bounded[name] || len(vb) == 0 || median(va) == 0 {
				continue
			}
			fmt.Printf("%-14s %-16s %2d/%-2d %13.6g %13.6g %8.4f %7s %7.4f  -\n",
				w.Name, name, len(va), len(vb), median(va), median(vb), median(vb)/median(va), "-", max(spread(va), spread(vb)))
		}
	}
	return code
}
