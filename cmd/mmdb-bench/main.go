// mmdb-bench regenerates the paper's tables and figures.
//
//	mmdb-bench -list
//	mmdb-bench -experiment graph4
//	mmdb-bench -experiment all -scale 0.25
//
// At -scale 1 every experiment runs at the paper's cardinalities (30,000
// elements; 20,000-tuple join relations). Smaller scales shrink the
// workloads proportionally for smoke runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id, comma list, or 'all'")
		scale      = flag.Float64("scale", 1.0, "fraction of the paper's cardinalities")
		seed       = flag.Int64("seed", 1986, "workload seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		csvDir     = flag.String("csv", "", "also write each series as <dir>/<id>.csv for plotting")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All {
			fmt.Printf("%-20s %s\n", e.ID, e.Exhibit)
		}
		return
	}

	var selected []bench.Experiment
	if *experiment == "all" {
		selected = bench.All
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	env := bench.Env{Scale: *scale, Seed: *seed}
	fmt.Printf("mmdb-bench: scale=%.3g seed=%d (%d experiments)\n\n", *scale, *seed, len(selected))
	for _, e := range selected {
		series, stats := bench.Measure(e, env)
		for _, s := range series {
			fmt.Println(s.Format())
			if *csvDir != "" {
				path := filepath.Join(*csvDir, s.ID+".csv")
				if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("  [%s completed: %s]\n\n", e.ID, stats)
	}
}
