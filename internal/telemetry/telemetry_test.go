package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestConcurrencySeries(t *testing.T) {
	r := NewRecorder(1)
	r.Record(TaskStart, "p1", 1)
	r.Record(TaskStart, "p1", 2)
	r.Record(TaskEnd, "p1", 1)
	r.Record(TaskStart, "p2", 3)
	r.Record(TaskEnd, "p1", 2)
	s := r.ConcurrencySeries("p1")
	want := []float64{1, 2, 1, 0}
	if len(s.Points) != len(want) {
		t.Fatalf("points = %v", s.Points)
	}
	for i, p := range s.Points {
		if p.V != want[i] {
			t.Fatalf("point %d = %v, want %v", i, p.V, want[i])
		}
	}
	all := r.ConcurrencySeries("")
	if got := all.Points[len(all.Points)-1].V; got != 1 {
		t.Fatalf("all-pools final concurrency = %v, want 1 (p2 still running)", got)
	}
}

func TestPoolsOrderedByFirstEvent(t *testing.T) {
	r := NewRecorder(1)
	r.Record(TaskStart, "b", 1)
	time.Sleep(time.Millisecond)
	r.Record(TaskStart, "a", 2)
	pools := r.Pools()
	if len(pools) != 2 || pools[0] != "b" || pools[1] != "a" {
		t.Fatalf("pools = %v", pools)
	}
}

func TestReprioWindows(t *testing.T) {
	r := NewRecorder(1)
	r.RecordRound(ReprioStart, "", 0, 1)
	r.RecordRound(ReprioEnd, "", 0, 1)
	r.RecordRound(ReprioStart, "", 0, 2)
	r.RecordRound(ReprioEnd, "", 0, 2)
	ws := r.ReprioWindows()
	if len(ws) != 2 || ws[0].Round != 1 || ws[1].Round != 2 {
		t.Fatalf("windows = %+v", ws)
	}
	for _, w := range ws {
		if w.End < w.Start {
			t.Fatalf("window %+v ends before it starts", w)
		}
	}
}

func TestUtilization(t *testing.T) {
	// 2 tasks running for the whole [0, 10] window with capacity 4 → 0.5.
	s := Series{Points: []Point{{T: 0, V: 2}}}
	if got := Utilization(s, 4, 0, 10); got < 0.49 || got > 0.51 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	// Step down at t=5: (4*5 + 0*5) / (4*10) = 0.5.
	s = Series{Points: []Point{{T: 0, V: 4}, {T: 5, V: 0}}}
	if got := Utilization(s, 4, 0, 10); got < 0.49 || got > 0.51 {
		t.Fatalf("step utilization = %v, want 0.5", got)
	}
	if Utilization(Series{}, 4, 0, 10) != 0 {
		t.Fatal("empty series utilization must be 0")
	}
	if Utilization(s, 0, 0, 10) != 0 {
		t.Fatal("zero capacity utilization must be 0")
	}
}

func TestSampledConcurrency(t *testing.T) {
	r := NewRecorder(1)
	r.Record(TaskStart, "p", 1)
	s := r.SampledConcurrency("p", 0.5, 2)
	if len(s.Points) != 5 {
		t.Fatalf("got %d samples, want 5", len(s.Points))
	}
	// The event lands nanoseconds after t=0, so the first sample may be 0;
	// every later sample must carry the value 1 forward.
	for _, p := range s.Points[1:] {
		if p.V != 1 {
			t.Fatalf("carried-forward value = %v at t=%v", p.V, p.T)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	a := Series{Name: "a", Points: []Point{{T: 0, V: 1}, {T: 1, V: 2}}}
	b := Series{Name: "b", Points: []Point{{T: 0.5, V: 5}}}
	if err := WriteCSV(&buf, 0.5, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 { // t = 0, 0.5, 1.0 plus header
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[2], "0.500,1,5") {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestASCIIPlot(t *testing.T) {
	s := Series{Name: "pool1", Points: []Point{{T: 0, V: 0}, {T: 5, V: 33}, {T: 10, V: 15}}}
	out := ASCIIPlot("Fig", 8, 40, s)
	if !strings.Contains(out, "pool1") || !strings.Contains(out, "#") {
		t.Fatalf("plot output:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 8 {
		t.Fatalf("plot too short:\n%s", out)
	}
	// Degenerate inputs must not panic.
	_ = ASCIIPlot("empty", 1, 1)
	_ = ASCIIPlot("flat", 5, 30, Series{Name: "z", Points: []Point{{T: 0, V: 0}}})
}

func TestTimeScale(t *testing.T) {
	r := NewRecorder(0.01) // 100x faster than real time
	time.Sleep(20 * time.Millisecond)
	if now := r.Now(); now < 1.5 || now > 10 {
		t.Fatalf("paper-time = %v, want ~2s for 20ms wall at scale 0.01", now)
	}
	if NewRecorder(0).Now() < 0 {
		t.Fatal("zero scale must not produce negative time")
	}
}

// Property: for any interleaving of start/end pairs, concurrency stays
// within [0, #tasks] and ends at zero when all tasks end.
func TestPropertyConcurrencyBounds(t *testing.T) {
	f := func(seed []bool) bool {
		r := NewRecorder(1)
		open := 0
		total := 0
		for _, b := range seed {
			if b || open == 0 {
				r.Record(TaskStart, "p", int64(total))
				open++
				total++
			} else {
				r.Record(TaskEnd, "p", 0)
				open--
			}
		}
		for ; open > 0; open-- {
			r.Record(TaskEnd, "p", 0)
		}
		s := r.ConcurrencySeries("p")
		for _, p := range s.Points {
			if p.V < 0 || p.V > float64(total) {
				return false
			}
		}
		return len(s.Points) == 0 || s.Points[len(s.Points)-1].V == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEventCap(t *testing.T) {
	r := NewRecorder(1)
	r.SetMaxEvents(10)
	for i := 0; i < 20; i++ {
		r.Record(TaskStart, "cpu", int64(i))
	}
	for i := 0; i < 5; i++ {
		r.Record(TaskEnd, "cpu", int64(i))
	}
	r.Record(TaskStart, "gpu", 100)
	events := r.Events()
	if got := len(events); got != 10 {
		t.Fatalf("events kept = %d, want 10 (cap)", got)
	}
	for i, e := range events {
		if e.Kind != TaskStart || e.Pool != "cpu" || e.TaskID != int64(i) {
			t.Fatalf("event %d = %+v, want the first ten cpu starts", i, e)
		}
	}

	r.SetMaxEvents(0) // unbounded again
	r.Record(TaskEnd, "gpu", 100)
	if got := len(r.Events()); got != 11 {
		t.Fatalf("events after unbounding = %d, want 11", got)
	}
}

// SetMaxEvents changes the event-history cap (default DefaultMaxEvents).
// n <= 0 removes the bound. Shrinking below the current history length keeps
// the history already recorded and only blocks further growth.
func (r *Recorder) SetMaxEvents(n int) {
	r.mu.Lock()
	r.maxEvents = n
	r.mu.Unlock()
}

// SampledConcurrency resamples the concurrency series on a fixed step grid
// over [0, end], carrying the last value forward.
func (r *Recorder) SampledConcurrency(pool string, step, end float64) Series {
	raw := r.ConcurrencySeries(pool)
	s := Series{Name: raw.Name}
	i := 0
	cur := 0.0
	for t := 0.0; t <= end+1e-9; t += step {
		for i < len(raw.Points) && raw.Points[i].T <= t {
			cur = raw.Points[i].V
			i++
		}
		s.Points = append(s.Points, Point{T: t, V: cur})
	}
	return s
}
