package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// A result set is a file of JSON lines, one run each, as -out appends them.

func readResultSet(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// side is one result set's view of one metric on one workload.
type side struct {
	n              int
	median, q1, q3 float64
}

func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

func sideOf(runs []runResult, workload, metric string) side {
	var vs []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != 0 || !r.Correct {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	q1, q3 := quartiles(vs)
	return side{n: len(vs), median: median(vs), q1: q1, q3: q3}
}

// verdict judges B against A for one metric. A spread wider than the bound on
// either side cannot resolve a change of the bound's size: unresolved, not
// same.
func verdict(m metricSpec, a, b side) string {
	if a.n < 2 || b.n < 2 || a.median == 0 {
		return "no-data"
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		return "unresolved"
	}
	change := (b.median - a.median) / a.median
	if m.Better == higher {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "same"
}

// compare prints, per workload and end-to-end metric, each side's median and
// quartiles over its untraced runs and the verdict against the metric's
// bound. It reports whether any metric came out worse.
func compare(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s, B = %s; verdicts judge B against A by each metric's bound\n", pathA, pathB)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		fmt.Fprintf(w, "  %-28s %5s %3s %12s %12s %12s %3s %12s %12s %12s %8s  %s\n",
			"metric", "bound", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median", "B q3", "change", "verdict")
		for _, m := range endToEnd {
			sa, sb := sideOf(a, wl.Name, m.Name), sideOf(b, wl.Name, m.Name)
			v := verdict(m, sa, sb)
			change := 0.0
			if sa.median != 0 {
				change = (sb.median - sa.median) / sa.median * 100
			}
			fmt.Fprintf(w, "  %-28s %4.0f%% %3d %12.4f %12.4f %12.4f %3d %12.4f %12.4f %12.4f %+7.1f%%  %s\n",
				m.Name, m.Bound*100, sa.n, sa.q1, sa.median, sa.q3, sb.n, sb.q1, sb.median, sb.q3, change, v)
			if v == "worse" {
				worse = true
			}
		}
	}
	return worse, nil
}
