// Command benchmark is the repository's one benchmark: four named
// workloads driven through the public repro API, end-to-end metrics from an
// untraced time-boxed window, and per-layer metrics from a separate traced
// run. BENCHMARK.json at the repository root names every metric it prints;
// README.md in this directory says why each workload exists.
//
//	bash benchmark/run.sh --workload olap_join --seed 1 --seconds 22 --trace 0
//	bash benchmark/run.sh compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	scale    float64
	window   time.Duration
	trace    bool
	setups   int // the constant setups, except in tests
	out      string
	traceOut string
	commit   string
}

// environment is stored with every result so numbers from different
// machines are never compared by accident.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
}

// record is the line appended to -out: everything the run knows, ending
// with the claim it makes.
type record struct {
	Env environment `json:"env"`
	*outcome
	Claim *string `json:"claim"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	cfg := &config{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	seconds := fs.Float64("seconds", 22, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and statements")
	fs.Float64Var(&cfg.scale, "scale", defaultScale, "data scale; 1.0 is a 500,000-row fact table")
	fs.StringVar(&cfg.out, "out", "", "append the full result record to this file, one JSON object per line")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit the numbers belong to, stored in the record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || cfg.scale <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace != 0
	cfg.setups = setups

	// One process, at most nproc client goroutines, GOMAXPROCS = nproc. A
	// "parallel" number recorded on one core is not a parallel number, and
	// htap_mixed needs its two clients to run side by side: fail loudly.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if nproc < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: %d CPU: the suite needs GOMAXPROCS >= 2 for its parallel.*_wN metrics and its two-client workload\n", nproc)
		return 3
	}

	var defs []*workloadDef
	if cfg.workload == "all" {
		for i := range workloadDefs {
			defs = append(defs, &workloadDefs[i])
		}
	} else if def := findWorkload(cfg.workload); def != nil {
		defs = append(defs, def)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", cfg.workload)
		return 2
	}

	sc, err := newScratch(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer sc.remove()
	d, err := Generate(cfg.seed, cfg.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	code := 0
	for _, def := range defs {
		env := environment{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: cfg.commit, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.window.Seconds(), Clients: 1}
		if def.name == "htap_mixed" {
			env.Clients = 2
		}
		var out *outcome
		if cfg.trace {
			out, err = runTraced(cfg, def, d, sc)
		} else {
			out, err = runMeasured(cfg, def, d, sc)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := report(cfg, env, out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
		if !out.Correct {
			code = 1
		}
	}
	return code
}

// report prints the environment, every metric by name with its unit, and
// then, as the last line, the result object the driver reads.
func report(cfg *config, env environment, out *outcome) error {
	envJSON, _ := json.Marshal(env)
	fmt.Printf("# %s trace=%v env=%s\n", out.Workload, out.Trace, envJSON)
	for _, name := range sortedKeys(out.Metrics) {
		m := out.Metrics[name]
		line := fmt.Sprintf("%-36s %16.6g %-6s", name, m.Value, m.Unit)
		if n := out.Samples[name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	for _, name := range sortedKeys(out.Extra) {
		line := fmt.Sprintf("  (%s %.6g)", name, out.Extra[name])
		if n := out.Samples[name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	if out.FirstErr != "" {
		fmt.Printf("FAILED %d of %d ops; first: %s\n", out.Failed, out.Attempted, out.FirstErr)
	}
	if cfg.out != "" {
		f, err := os.OpenFile(cfg.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		// This benchmark changes no engine code and claims no gain.
		line, _ := json.Marshal(record{Env: env, outcome: out, Claim: nil})
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, out.Metrics})
	fmt.Println(string(last))
	return nil
}
