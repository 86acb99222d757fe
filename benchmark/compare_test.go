package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metricSpec{Name: "lat", Better: lower, Bound: 0.10}
	rate := metricSpec{Name: "rate", Better: higher, Bound: 0.10}
	tight := func(med float64) side { return side{n: 5, median: med, q1: med * 0.99, q3: med * 1.01} }
	for _, c := range []struct {
		m    metricSpec
		a, b side
		want string
	}{
		{lat, tight(100), tight(105), "same"},
		{lat, tight(100), tight(115), "worse"},
		{lat, tight(100), tight(85), "better"},
		{rate, tight(100), tight(85), "worse"},
		{rate, tight(100), tight(115), "better"},
		{lat, tight(100), side{n: 5, median: 130, q1: 100, q3: 160}, "unresolved"},
		{lat, side{n: 1, median: 100}, tight(100), "no-data"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %q, want %q", c.m.Name, c.a.median, c.b.median, got, c.want)
		}
	}
}

// compare reads two result sets as -out writes them and judges every
// end-to-end metric of every workload.
func TestCompareResultSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tasksPerS float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			res := &runResult{Workload: "deep-queue", Seed: int64(i), Correct: true, Metrics: map[string]metricValue{}}
			for _, m := range endToEnd {
				res.Metrics[m.Name] = metricValue{Value: 100 + float64(i), Unit: m.Unit}
			}
			res.Metrics["tasks_per_s"] = metricValue{Value: tasksPerS + float64(i), Unit: "1/s"}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.json", 1000), write("b.json", 500)
	var out bytes.Buffer
	worse, err := compare(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("halved tasks_per_s was not reported worse:\n%s", out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "report_p50_us") && strings.Contains(line, "   5 ") && !strings.HasSuffix(line, "same") {
			t.Errorf("unchanged metric not judged same: %q", line)
		}
	}
	if same, err := compare(&out, a, a); err != nil || same {
		t.Errorf("a set compared with itself: worse=%v err=%v", same, err)
	}
	if _, err := compare(&out, a, filepath.Join(dir, "missing.json")); err == nil || !os.IsNotExist(err) {
		t.Errorf("missing result set: err = %v, want not-exist", err)
	}
}
