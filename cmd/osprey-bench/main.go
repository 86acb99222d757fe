// Command osprey-bench regenerates the paper's evaluation figures (§VI) and
// drives the hot-path benchmark trajectory (BENCH_*.json).
//
//	osprey-bench -fig 3            # three utilization panels (Figure 3)
//	osprey-bench -fig 4            # combined federated workflow (Figure 4)
//	osprey-bench -fig 0            # both
//	osprey-bench -json BENCH_pr4.json        # record the key-benchmark baseline
//	osprey-bench -check BENCH_pr4.json       # fail if ns/op regressed >25% or allocs/op grew >5%
//
// The -json/-check modes shell out to `go test -bench` for the key hot-path
// benchmarks and read/write name → {ns_op, b_op, allocs_op} JSON, so perf
// PRs commit a measured baseline and CI gates on it.
//
// By default runs use paper-scale parameters (750 tasks, 33 workers per
// pool, reprioritization every 50 completions) at TimeScale 0.01, so the
// paper's ~200 simulated seconds replay in a few wall seconds. Output is an
// ASCII rendering of each figure plus a summary table; -csv writes the
// series for external plotting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"osprey/internal/experiments"
	"osprey/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("osprey-bench: ")
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate: 3, 4, or 0 for both")
		tasks     = flag.Int("tasks", 750, "number of Ackley evaluation tasks")
		dim       = flag.Int("dim", 4, "Ackley dimension")
		workers   = flag.Int("workers", 33, "workers per pool")
		timeScale = flag.Float64("timescale", 0.01, "wall-seconds per paper-second")
		seed      = flag.Int64("seed", 2023, "random seed")
		csvPath   = flag.String("csv", "", "write series CSV to this file prefix")

		jsonPath   = flag.String("json", "", "run the key benchmarks and write a BENCH_*.json baseline to this path")
		checkPath  = flag.String("check", "", "run the key benchmarks and fail if ns/op regressed beyond -max-regress or allocs/op grew more than 5% vs this baseline")
		benchRe    = flag.String("bench", keyBenchmarks, "benchmark regex for -json/-check")
		benchtime  = flag.String("benchtime", "0.3s", "per-benchmark measuring time for -json/-check")
		maxRegress = flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression for -check")
	)
	flag.Parse()

	if *jsonPath != "" || *checkPath != "" {
		runBenchMode(*jsonPath, *checkPath, *benchRe, *benchtime, *maxRegress)
	}

	ctx := context.Background()
	if *fig == 3 || *fig == 0 {
		runFig3(ctx, *tasks, *dim, *workers, *timeScale, *seed, *csvPath)
	}
	if *fig == 4 || *fig == 0 {
		runFig4(ctx, *tasks, *dim, *workers, *timeScale, *seed, *csvPath)
	}
}

func runFig3(ctx context.Context, tasks, dim, workers int, ts float64, seed int64, csvPath string) {
	fmt.Println("=== Figure 3: concurrent tasks vs. batch size and threshold ===")
	type panel struct {
		label            string
		batch, threshold int
	}
	panels := []panel{
		{"top: batch=50 threshold=1 (oversubscribed)", workers + 17, 1},
		{"middle: batch=33 threshold=1", workers, 1},
		{"bottom: batch=33 threshold=15 (saw-tooth)", workers, 15},
	}
	var series []telemetry.Series
	for _, p := range panels {
		res, err := experiments.RunFig3(ctx, experiments.Fig3Config{
			Workers: workers, BatchSize: p.batch, Threshold: p.threshold,
			Tasks: tasks, Dim: dim, TimeScale: ts, Seed: seed,
		})
		if err != nil {
			log.Fatalf("fig3 %s: %v", p.label, err)
		}
		fmt.Printf("\n--- %s ---\n", p.label)
		fmt.Print(telemetry.ASCIIPlot(
			fmt.Sprintf("running tasks (batch=%d, threshold=%d)", p.batch, p.threshold),
			12, 72, res.Series))
		fmt.Printf("utilization: full-run %.3f, steady-state %.3f; makespan %.1f paper-s\n",
			res.Utilization, res.SteadyUtilization, res.Makespan)
		series = append(series, res.Series)
	}
	writeCSV(csvPath, "fig3", series)
}

func runFig4(ctx context.Context, tasks, dim, workers int, ts float64, seed int64, csvPath string) {
	fmt.Println("\n=== Figure 4: combined multi-pool workflow with GPR reprioritization ===")
	res, err := experiments.RunFig4(ctx, experiments.Fig4Config{
		Tasks: tasks, Dim: dim, Workers: workers, RetrainEvery: 50,
		TimeScale: ts, Seed: seed, QueueDelay: 25,
	})
	if err != nil {
		log.Fatalf("fig4: %v", err)
	}
	fmt.Print(telemetry.ASCIIPlot("running tasks per worker pool", 12, 72, res.PoolSeries...))
	fmt.Println("\npool start times (paper-seconds):")
	for _, name := range res.Recorder.Pools() {
		fmt.Printf("  %-16s %8.1f s\n", name, res.PoolStarts[name])
	}
	fmt.Println("\nGPR reprioritizations (top panel):")
	for _, w := range res.Reprios {
		fmt.Printf("  round %2d: start %7.1f s, duration %5.2f s\n", w.Round, w.Start, w.End-w.Start)
	}
	fmt.Printf("\ncompleted %d tasks in %.1f paper-s; best Ackley value %.4f at %v\n",
		res.Report.Completed, res.Makespan, res.Report.BestY, res.Report.BestX)
	writeCSV(csvPath, "fig4", res.PoolSeries)
}

func writeCSV(prefix, name string, series []telemetry.Series) {
	if prefix == "" || len(series) == 0 {
		return
	}
	path := prefix + "-" + name + ".csv"
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("csv: %v", err)
	}
	defer f.Close()
	if err := telemetry.WriteCSV(f, 1.0, series...); err != nil {
		log.Fatalf("csv: %v", err)
	}
	fmt.Printf("(series written to %s)\n", path)
}
