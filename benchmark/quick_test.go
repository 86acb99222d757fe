package main

import (
	"bytes"
	"testing"
	"time"
)

// TestQuickRun drives all four workloads at 1/50 size with the output checks
// on, untraced and traced, so that `go test` keeps the benchmark from rotting.
// It is a smoke test, not a measurement.
func TestQuickRun(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: wl.Name, seed: 1, length: 300 * time.Millisecond, trace: trace, quick: true, outDir: dir}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d first error: %v",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, res.firstErr)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want the %d of its list", wl.Name, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", wl.Name, trace, m.Name, v.Unit, m.Unit)
				}
			}
			if !trace {
				for _, name := range []string{"setup_s", "tasks_per_s", "report_p50_us", "allocs_per_task"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl.Name, name, res.Metrics[name].Value)
					}
				}
			} else if len(res.spans) == 0 || res.tracePath == "" {
				t.Errorf("%s: traced run recorded no spans", wl.Name)
			}
			var report bytes.Buffer
			printRun(&report, res)
			if report.Len() == 0 {
				t.Errorf("%s trace=%v: empty report", wl.Name, trace)
			}
		}
	}
}
