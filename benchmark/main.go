// Command benchmark is the end-to-end task-lifecycle load benchmark of the
// OSPREY task database: it boots a real topology in-process, drives it
// through the product's public surface (core.Session via service.Dial,
// service.DialCluster or *core.DB, pool.Pool, future) with the paper's traffic
// shape, checks the outputs, and prints every metric by name and unit. See
// README.md in this directory for the workloads, the metrics and how to read
// the output.
//
// Run it from the repository root through benchmark/run.sh:
//
//	bash benchmark/run.sh                         all four workloads, untraced then traced
//	bash benchmark/run.sh -workload quorum-cycle  one run; the last line is its result as JSON
//	bash benchmark/run.sh -compare A.json B.json  compare two result sets written with -out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json: the length the bounds and
// the baseline numbers in README.md were measured at.
const defaultSeconds = 20

// traceDir is where traced runs leave <workload>.trace.json and where the
// durable node keeps its data while it runs; benchmark/.gitignore covers it.
const traceDir = "benchmark/out"

func main() {
	workload := flag.String("workload", "", "run only this workload and print its result as the last line (default: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed of the input generator")
	seconds := flag.Float64("seconds", 0, "length of the measured windows of a run together (default 20; 0.4 with -quick)")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	out := flag.String("out", "", "append each run's result to this file as a JSON line (a result set for -compare)")
	quick := flag.Bool("quick", false, "1/50 size: a smoke run for the test suite, not a measurement")
	cmp := flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result-set files")
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *seconds == 0 {
		*seconds = defaultSeconds
		if *quick {
			*seconds = 0.4
		}
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := runConfig{
		seed: *seed, length: time.Duration(*seconds * float64(time.Second)),
		quick: *quick, outDir: traceDir,
	}

	if *workload != "" {
		if !knownWorkload(*workload) {
			fatalf("unknown workload %q", *workload)
		}
		cfg.workload, cfg.trace = *workload, *trace == 1
		res := mustRun(cfg, *out)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatalf("encoding result: %v", err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	ok := true
	for _, wl := range workloads {
		cfg.workload = wl.Name
		fmt.Printf("# %s: %s\n", wl.Name, wl.Why)
		cfg.trace = false
		untraced := mustRun(cfg, *out)
		cfg.trace = true
		traced := mustRun(cfg, *out)
		printOverhead(os.Stdout, untraced, traced)
		fmt.Println()
		ok = ok && untraced.Correct && traced.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func knownWorkload(name string) bool {
	for _, wl := range workloads {
		if wl.Name == name {
			return true
		}
	}
	return false
}

// mustRun runs one workload, prints its report and appends it to the result
// set if one was asked for. A harness that cannot run at all ends the
// process without a result.
func mustRun(cfg runConfig, out string) *runResult {
	res, err := runWorkload(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	printRun(os.Stdout, res)
	if out != "" {
		if err := appendResult(out, res); err != nil {
			fatalf("writing %s: %v", out, err)
		}
	}
	return res
}

func appendResult(path string, res *runResult) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
