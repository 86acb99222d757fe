package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// keyBenchmarks are the hot-path benchmarks the BENCH_*.json trajectory
// tracks: one per optimized layer (core submit/pop cycle, minisql ordered
// index, replica quorum shipping, service follower reads), plus the
// logged-vs-unlogged pop pair guarding the Session redesign's claim that
// commit tokens on pops stay under ~10% overhead, the instrumented submit
// guarding the observability layer's negligible-overhead claim, and the
// no-fsync durable submit guarding the WAL encode cost. The fsync'd durable
// variants are recorded but not gated — fsync wall time is a property of the
// host's storage stack, and gating it against a baseline from a different
// machine would be pure hardware noise. The wire-protocol pair guards the
// binary codec (BenchmarkWireCodec, encode+decode of a submit-shaped round
// trip), its commit-log twin (BenchmarkEntryCodec, minisql's record codec on
// a real submit entry) and the multiplexed client's
// pipelining win (BenchmarkPipelinedSubmitParallel8, eight submitters
// sharing one connection). The watch trio guards the push subsystem:
// BenchmarkWatchDispatch is the hub's fan-out cost per committed transition
// (16 subscribers), and BenchmarkWatchWake vs BenchmarkPollWake is the
// standing proof that a server-push wake-up (submit -> queued event on a
// watch stream) beats the poll round trip it replaced. The depth pair guards
// minisql's index access paths against costing O(rows) per statement again:
// BenchmarkUpdatePrioritiesDepth20k reprioritises 500 of 20 000 queued tasks
// (the ordered index at the depth the 700-row priority benchmarks never
// reach), and BenchmarkDedupSubmitBatchAt10kRows submits under fresh dedup
// keys into a 10 000-row table (an index miss must not become a table scan).
// BenchmarkPoolTasks is a running pool draining a 64-task batch over an
// in-process DB: its allocations per op guard the pool's long-lived workers
// against a goroutine, closure or deadline context per task coming back.
const keyBenchmarks = "^(BenchmarkSubmitTask|BenchmarkInstrumentedSubmit|" +
	"BenchmarkSubmitQueryReportCycle|BenchmarkDurableSubmit|" +
	"BenchmarkPopResultsBatch50|BenchmarkQuorumSubmit|BenchmarkFollowerRead|" +
	"BenchmarkMinisqlIndexedSelect|BenchmarkPopTokenOverhead|" +
	"BenchmarkWireCodec|BenchmarkEntryCodec|BenchmarkPipelinedSubmitParallel8|" +
	"BenchmarkWatchDispatch|BenchmarkWatchWake|BenchmarkPollWake|" +
	"BenchmarkUpdatePrioritiesDepth20k|BenchmarkDedupSubmitBatchAt10kRows|" +
	"BenchmarkPoolTasks)$"

// benchResult is one benchmark's measurements as recorded in BENCH_*.json.
type benchResult struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// benchLine parses one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkSubmitTask-8   123456   15209 ns/op   3694 B/op   40 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9]+) allocs/op)?`)

// runBenchmarks executes the benchmark regex against the repository root
// package and returns name → measurements.
func runBenchmarks(bench, benchtime string) (map[string]benchResult, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchmem", "-benchtime", benchtime, ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, out)
	}
	results := make(map[string]benchResult)
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		var r benchResult
		r.NsOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			r.BOp, _ = strconv.ParseFloat(m[3], 64)
			r.AllocsOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		results[m[1]] = r
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark results matched %q", bench)
	}
	return results, nil
}

// writeBaseline emits the JSON baseline (sorted keys, stable diffs).
func writeBaseline(path string, results map[string]benchResult) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// maxAllocGrowth is the fractional allocs/op growth over the baseline that
// fails -check: the bound BENCHMARK.json fixes for the end-to-end
// allocs_per_task. An allocation count repeats from run to run where a time
// does not, so it is gated far tighter than ns/op.
const maxAllocGrowth = 0.05

// checkBaseline compares fresh results against a committed baseline and
// returns an error when any benchmark's ns/op regressed beyond maxRegress
// (0.25 = 25%) or its allocs/op grew beyond maxAllocGrowth, or when a
// baseline benchmark was not measured at all — a renamed or regex-dropped
// benchmark must not silently fall out of the gate while it reports green.
// New benchmarks absent from the baseline are reported but pass; they start
// gating once their baseline lands.
func checkBaseline(path string, results map[string]benchResult, maxRegress float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base map[string]benchResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var failed []string
	fmt.Printf("%-34s %14s %14s %8s %10s %10s\n",
		"benchmark", "baseline ns/op", "current ns/op", "delta", "base alloc", "allocs/op")
	for _, name := range names {
		cur := results[name]
		b, ok := base[name]
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %8s %10s %10d\n", name, "(new)", cur.NsOp, "-", "-", cur.AllocsOp)
			continue
		}
		delta := (cur.NsOp - b.NsOp) / b.NsOp
		mark := ""
		if delta > maxRegress {
			mark = "  << REGRESSION"
			failed = append(failed, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.0f%%, limit %.0f%%)",
				name, b.NsOp, cur.NsOp, delta*100, maxRegress*100))
		}
		if float64(cur.AllocsOp) > float64(b.AllocsOp)*(1+maxAllocGrowth) {
			mark += "  << ALLOCS"
			failed = append(failed, fmt.Sprintf("%s: %d -> %d allocs/op (limit +%.0f%%)",
				name, b.AllocsOp, cur.AllocsOp, maxAllocGrowth*100))
		}
		fmt.Printf("%-34s %14.0f %14.0f %+7.1f%% %10d %10d%s\n",
			name, b.NsOp, cur.NsOp, delta*100, b.AllocsOp, cur.AllocsOp, mark)
	}
	for name := range base {
		if _, ok := results[name]; !ok {
			fmt.Printf("%-34s (in baseline, not measured)\n", name)
			failed = append(failed, fmt.Sprintf(
				"%s: in baseline but not measured (renamed? regex drift?) — re-record the baseline", name))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("regressed vs %s:\n  %s", path, strings.Join(failed, "\n  "))
	}
	return nil
}

// runBenchMode drives the -json/-check flags; it exits the process.
func runBenchMode(jsonPath, checkPath, bench, benchtime string, maxRegress float64) {
	results, err := runBenchmarks(bench, benchtime)
	if err != nil {
		log.Fatal(err)
	}
	if jsonPath != "" {
		if err := writeBaseline(jsonPath, results); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(results), jsonPath)
	}
	if checkPath != "" {
		if err := checkBaseline(checkPath, results, maxRegress); err != nil {
			log.Fatal(err)
		}
		fmt.Println("benchmark gate passed")
	}
	os.Exit(0)
}
