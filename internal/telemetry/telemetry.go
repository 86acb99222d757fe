// Package telemetry records workflow execution events — task starts/stops,
// worker-pool launches, reprioritization windows — and derives from them the
// time series plotted in the paper's evaluation: the number of concurrently
// executing tasks per worker pool over time (Figures 3 and 4) and the
// reprioritization trajectories (Figure 4 top).
//
// All simulated delays in this repository are expressed in paper-seconds
// multiplied by a TimeScale; the recorder divides wall-clock time by that
// scale so reported series are directly comparable to the paper's axes.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind labels a recorded event.
type Kind string

// Event kinds.
const (
	TaskStart   Kind = "task_start"
	TaskEnd     Kind = "task_end"
	PoolStart   Kind = "pool_start"
	PoolStop    Kind = "pool_stop"
	ReprioStart Kind = "reprio_start"
	ReprioEnd   Kind = "reprio_end"
)

// Event is one timestamped occurrence. T is in paper-seconds from the
// recorder start.
type Event struct {
	T      float64
	Kind   Kind
	Pool   string
	TaskID int64
	// Round is the reprioritization round (Reprio* events).
	Round int
}

// DefaultMaxEvents bounds a Recorder's in-memory event history. At the
// paper's workload scale (thousands of tasks, two events each) the default
// is far out of reach; a pool recording for days hits it and keeps its first
// DefaultMaxEvents events instead of growing memory with history forever.
const DefaultMaxEvents = 1 << 20

// Recorder collects events. It is safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	start     time.Time
	scale     float64
	events    []Event
	maxEvents int // cap on len(events); <= 0 means unbounded
}

// NewRecorder creates a Recorder. timeScale is wall-seconds per
// paper-second (e.g. 0.01 runs the paper's 200 s workflow in 2 s);
// values <= 0 default to 1.
func NewRecorder(timeScale float64) *Recorder {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Recorder{start: time.Now(), scale: timeScale, maxEvents: DefaultMaxEvents}
}

// Now returns the current time in paper-seconds since the recorder start.
func (r *Recorder) Now() float64 {
	return time.Since(r.start).Seconds() / r.scale
}

// Record appends an event stamped with the current paper-time.
func (r *Recorder) Record(kind Kind, pool string, taskID int64) {
	r.RecordRound(kind, pool, taskID, 0)
}

// RecordRound appends an event carrying a reprioritization round number.
// Past the history cap the event is not kept.
func (r *Recorder) RecordRound(kind Kind, pool string, taskID int64, round int) {
	e := Event{T: r.Now(), Kind: kind, Pool: pool, TaskID: taskID, Round: round}
	r.mu.Lock()
	if r.maxEvents <= 0 || len(r.events) < r.maxEvents {
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
}

// Events returns a copy of all recorded events sorted by time.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Pools returns the distinct pool names seen in task events, sorted by the
// time of their first event.
func (r *Recorder) Pools() []string {
	first := map[string]float64{}
	for _, e := range r.Events() {
		if e.Pool == "" {
			continue
		}
		if _, ok := first[e.Pool]; !ok {
			first[e.Pool] = e.T
		}
	}
	names := make([]string, 0, len(first))
	for n := range first {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return first[names[i]] < first[names[j]] })
	return names
}

// Point is one sample of a time series.
type Point struct {
	T float64 // paper-seconds
	V float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// ConcurrencySeries derives the number of concurrently running tasks for one
// pool ("" for all pools), sampled at every event boundary. This is the
// quantity plotted in Figures 3 and 4 (bottom).
func (r *Recorder) ConcurrencySeries(pool string) Series {
	events := r.Events()
	s := Series{Name: pool}
	n := 0
	for _, e := range events {
		if pool != "" && e.Pool != pool {
			continue
		}
		switch e.Kind {
		case TaskStart:
			n++
		case TaskEnd:
			n--
		default:
			continue
		}
		s.Points = append(s.Points, Point{T: e.T, V: float64(n)})
	}
	return s
}

// ReprioWindow is one reprioritization call: its time extent and round.
type ReprioWindow struct {
	Round      int
	Start, End float64
}

// ReprioWindows pairs ReprioStart/ReprioEnd events by round (Figure 4 top,
// horizontal duration lines).
func (r *Recorder) ReprioWindows() []ReprioWindow {
	starts := map[int]float64{}
	var out []ReprioWindow
	for _, e := range r.Events() {
		switch e.Kind {
		case ReprioStart:
			starts[e.Round] = e.T
		case ReprioEnd:
			out = append(out, ReprioWindow{Round: e.Round, Start: starts[e.Round], End: e.T})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// End returns the time of the last recorded event in paper-seconds.
func (r *Recorder) End() float64 {
	events := r.Events()
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].T
}

// Utilization returns mean running tasks divided by capacity over the
// series' extent — the scalar summarized in EXPERIMENTS.md for Figure 3.
func Utilization(s Series, capacity int, start, end float64) float64 {
	if capacity <= 0 || end <= start || len(s.Points) == 0 {
		return 0
	}
	area := 0.0
	cur := 0.0
	last := start
	for _, p := range s.Points {
		if p.T < start {
			cur = p.V
			continue
		}
		if p.T > end {
			break
		}
		area += cur * (p.T - last)
		cur = p.V
		last = p.T
	}
	area += cur * (end - last)
	return area / (float64(capacity) * (end - start))
}

// WriteCSV emits the series as "t,name1,name2,..." rows on a shared grid.
func WriteCSV(w io.Writer, step float64, series ...Series) error {
	if len(series) == 0 {
		return nil
	}
	end := 0.0
	for _, s := range series {
		if n := len(s.Points); n > 0 && s.Points[n-1].T > end {
			end = s.Points[n-1].T
		}
	}
	header := []string{"t"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	idx := make([]int, len(series))
	cur := make([]float64, len(series))
	for t := 0.0; t <= end+1e-9; t += step {
		row := []string{fmt.Sprintf("%.3f", t)}
		for i, s := range series {
			for idx[i] < len(s.Points) && s.Points[idx[i]].T <= t {
				cur[i] = s.Points[idx[i]].V
				idx[i]++
			}
			row = append(row, fmt.Sprintf("%g", cur[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIPlot renders series as a rows×cols terminal chart — the repository's
// stand-in for the paper's matplotlib figures. Multiple series are drawn
// with distinct glyphs.
func ASCIIPlot(title string, rows, cols int, series ...Series) string {
	if rows < 4 {
		rows = 4
	}
	if cols < 20 {
		cols = 20
	}
	maxT, maxV := 0.0, 0.0
	for _, s := range series {
		for _, p := range s.Points {
			if p.T > maxT {
				maxT = p.T
			}
			if p.V > maxV {
				maxV = p.V
			}
		}
	}
	if maxT == 0 {
		maxT = 1
	}
	if maxV == 0 {
		maxV = 1
	}
	glyphs := []byte{'#', 'o', '+', 'x', '*', '@'}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		// Step-plot: carry value forward across columns.
		cur := 0.0
		pi := 0
		for c := 0; c < cols; c++ {
			t := maxT * float64(c) / float64(cols-1)
			for pi < len(s.Points) && s.Points[pi].T <= t {
				cur = s.Points[pi].V
				pi++
			}
			rrow := rows - 1 - int(cur/maxV*float64(rows-1)+0.5)
			if rrow >= 0 && rrow < rows {
				grid[rrow][c] = g
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (y: 0..%.0f, x: 0..%.0fs)\n", title, maxV, maxT)
	for i, line := range grid {
		yVal := maxV * float64(rows-1-i) / float64(rows-1)
		fmt.Fprintf(&sb, "%6.1f |%s|\n", yVal, string(line))
	}
	fmt.Fprintf(&sb, "       %s\n", strings.Repeat("-", cols))
	legend := make([]string, 0, len(series))
	for si, s := range series {
		name := s.Name
		if name == "" {
			name = "all"
		}
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], name))
	}
	sb.WriteString("       " + strings.Join(legend, "  ") + "\n")
	return sb.String()
}
