package main

import (
	"fmt"
	"io"
)

// printRun writes one run's human-readable report: every metric of the run's
// mode by name with its unit, the sample count behind each percentile,
// operations attempted and failed, and for a traced run the attribution
// table and the span summary.
func printRun(w io.Writer, r *runResult) {
	mode, specs := "tracing off", endToEnd
	if r.Trace == 1 {
		mode, specs = "tracing on", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  measured %.2f s  %d tasks ==\n",
		r.Workload, r.Seed, mode, r.measuredFor.Seconds(), r.tasks)
	verdict := "output checks passed"
	if !r.Correct {
		verdict = fmt.Sprintf("OUTPUT CHECKS FAILED: %v", r.firstErr)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d; %s\n", r.Attempted, r.Failed, verdict)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if r.Trace == 1 {
		fmt.Fprintln(w, "per-layer metrics (0: the workload does not exercise that layer):")
	} else {
		fmt.Fprintln(w, "end-to-end metrics:")
	}
	for _, m := range specs {
		v := r.Metrics[m.Name]
		extra := ""
		if m.Bound > 0 {
			extra = fmt.Sprintf("  %s is better, bound %.0f%%", m.Better, m.Bound*100)
		}
		if n, ok := r.samples[m.Name]; ok {
			extra += fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-5s%s\n", m.Name, v.Value, v.Unit, extra)
		if pe := r.perEpoch[m.Name]; r.Trace == 0 && len(pe) > 0 {
			fmt.Fprintf(w, "  %-40s per epoch: %.4g\n", "", pe)
		}
	}
	if len(r.attribution) > 0 {
		fmt.Fprintln(w, "attribution, us per call; the parts sum to the client-observed mean (rtt):")
		fmt.Fprintf(w, "  %-18s %8s %10s = %10s + %10s + %10s + %11s + %10s + %12s\n",
			"op", "calls", "rtt", "wire_self", "dispatch", "core_exec", "quorum_wait", "fsync_wait", "unattributed")
		for _, a := range r.attribution {
			fmt.Fprintf(w, "  %-18s %8d %10.1f = %10.1f + %10.1f + %10.1f + %11.1f + %10.1f + %12.1f\n",
				a.op, a.calls, a.rtt, a.wireSelf, a.dispatch, a.coreExec, a.quorumWait, a.fsyncWait, a.unattrib)
		}
	}
	if len(r.spans) > 0 {
		fmt.Fprintln(w, "spans (self = duration minus the part child spans cover):")
		fmt.Fprintf(w, "  %-18s %9s %12s %12s %12s\n", "name", "count", "mean_us", "self_us", "p99_us")
		for _, s := range r.spans {
			fmt.Fprintf(w, "  %-18s %9d %12.1f %12.1f %12.1f\n", s.name, s.count, s.meanUS, s.selfUS, s.p99US)
		}
		fmt.Fprintf(w, "trace written to %s\n", r.tracePath)
	}
}

// printOverhead states what tracing cost: the traced run's throughput against
// the untraced run of the same workload, seed and length.
func printOverhead(w io.Writer, untraced, traced *runResult) {
	u, t := untraced.values["tasks_per_s"], traced.values["tasks_per_s"]
	if u == 0 {
		return
	}
	fmt.Fprintf(w, "%s trace_overhead_pct %.2f %%  (tasks_per_s %.1f untraced, %.1f traced; end-to-end numbers are the untraced run's)\n",
		untraced.Workload, (u-t)/u*100, u, t)
}
