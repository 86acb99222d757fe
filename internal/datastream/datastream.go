// Package datastream implements OSPREY's data ingestion, curation, and
// management requirement (paper §II-B2): moving surveillance data from its
// origin of publication to its site of use, with curation pipelines that
// quantify and adjust for data limitations and track provenance.
//
// Because real surveillance feeds are unavailable here, the package also
// contains a generator of synthetic surveillance streams with the paper's
// stated pathologies — reporting delay, weekday effects, backfill
// revisions, and missing days — produced from an underlying epi.Series so
// that curation quality can be measured against known truth.
package datastream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Observation is one reported data point: on ReportDay, the source
// published Value for EventDay. Re-reports of the same EventDay with
// higher ReportDay are revisions (backfill).
type Observation struct {
	EventDay  int     `json:"event_day"`
	ReportDay int     `json:"report_day"`
	Value     float64 `json:"value"`
}

// Record is an ingested observation with provenance.
type Record struct {
	Observation
	Source     string `json:"source"`
	IngestedAt int64  `json:"ingested_at"` // unix nanos
	Sequence   int64  `json:"sequence"`    // ingest order within the store
}

// ErrNoData is returned when a query matches nothing.
var ErrNoData = errors.New("datastream: no data")

// Store ingests observations from named sources and serves curated views.
// It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	records []Record
	seq     int64
	// provenance log: one entry per pipeline application.
	log []ProvenanceEntry
}

// ProvenanceEntry records a curation step for reproducibility (paper:
// "track data provenance").
type ProvenanceEntry struct {
	At     int64  `json:"at"`
	Op     string `json:"op"`
	Detail string `json:"detail"`
}

// NewStore creates an empty ingest store.
func NewStore() *Store { return &Store{} }

// Ingest appends observations from source, returning how many were stored.
func (s *Store) Ingest(source string, obs []Observation) int {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range obs {
		s.seq++
		s.records = append(s.records, Record{
			Observation: o, Source: source, IngestedAt: now, Sequence: s.seq,
		})
	}
	s.logLocked("ingest", fmt.Sprintf("source=%s n=%d", source, len(obs)))
	return len(obs)
}

func (s *Store) logLocked(op, detail string) {
	s.log = append(s.log, ProvenanceEntry{At: time.Now().UnixNano(), Op: op, Detail: detail})
}

// Provenance returns the curation log.
func (s *Store) Provenance() []ProvenanceEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ProvenanceEntry(nil), s.log...)
}

// Len returns the number of ingested records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// AsOf reconstructs the series a consumer would have seen on reportDay:
// for each event day, the latest revision with ReportDay <= reportDay.
// Days with no report are absent from the map. This is the "data vintage"
// view data-assimilation workflows replay.
func (s *Store) AsOf(source string, reportDay int) (map[int]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	latest := map[int]Record{}
	for _, r := range s.records {
		if r.Source != source || r.ReportDay > reportDay {
			continue
		}
		cur, ok := latest[r.EventDay]
		if !ok || r.ReportDay > cur.ReportDay ||
			(r.ReportDay == cur.ReportDay && r.Sequence > cur.Sequence) {
			latest[r.EventDay] = r
		}
	}
	if len(latest) == 0 {
		return nil, fmt.Errorf("%w: source %q as of day %d", ErrNoData, source, reportDay)
	}
	out := make(map[int]float64, len(latest))
	for d, r := range latest {
		out[d] = r.Value
	}
	return out, nil
}

// --- curation pipeline (paper §II-B2b: automated data curation) ---

// SeriesView is a dense daily series assembled from an AsOf view.
type SeriesView struct {
	Start  int       `json:"start"`
	Values []float64 `json:"values"`
	// Missing marks days that had no report and were imputed.
	Missing []bool `json:"missing"`
}

// Dense converts a sparse day→value map into a dense SeriesView over
// [start, end], linearly imputing interior gaps and zero-filling edges.
func Dense(view map[int]float64, start, end int) (*SeriesView, error) {
	if end < start {
		return nil, fmt.Errorf("datastream: invalid range [%d, %d]", start, end)
	}
	n := end - start + 1
	sv := &SeriesView{Start: start, Values: make([]float64, n), Missing: make([]bool, n)}
	for i := range sv.Values {
		if v, ok := view[start+i]; ok {
			sv.Values[i] = v
		} else {
			sv.Missing[i] = true
		}
	}
	// Linear interpolation between known neighbours.
	lastKnown := -1
	for i := 0; i < n; i++ {
		if !sv.Missing[i] {
			if lastKnown >= 0 && i-lastKnown > 1 {
				lo, hi := sv.Values[lastKnown], sv.Values[i]
				for j := lastKnown + 1; j < i; j++ {
					frac := float64(j-lastKnown) / float64(i-lastKnown)
					sv.Values[j] = lo + frac*(hi-lo)
				}
			}
			lastKnown = i
		}
	}
	// Leading gap: carry first known value back; trailing gap: carry last.
	first := -1
	for i := 0; i < n; i++ {
		if !sv.Missing[i] {
			first = i
			break
		}
	}
	if first == -1 {
		return nil, fmt.Errorf("%w: all %d days missing", ErrNoData, n)
	}
	for i := 0; i < first; i++ {
		sv.Values[i] = sv.Values[first]
	}
	for i := n - 1; i >= 0 && sv.Missing[i]; i-- {
		sv.Values[i] = sv.Values[lastKnown]
	}
	return sv, nil
}

// MissingCount returns how many days were imputed.
func (sv *SeriesView) MissingCount() int {
	n := 0
	for _, m := range sv.Missing {
		if m {
			n++
		}
	}
	return n
}

// DeWeekday removes a multiplicative day-of-week effect: each weekday's
// values are rescaled by the ratio of the overall mean to that weekday's
// mean. It returns the estimated weekday factors.
func (sv *SeriesView) DeWeekday() [7]float64 {
	var sums, counts [7]float64
	total, n := 0.0, 0.0
	for i, v := range sv.Values {
		d := (sv.Start + i) % 7
		sums[d] += v
		counts[d]++
		total += v
		n++
	}
	var factors [7]float64
	mean := total / math.Max(n, 1)
	for d := 0; d < 7; d++ {
		if counts[d] == 0 || sums[d] == 0 || mean == 0 {
			factors[d] = 1
			continue
		}
		factors[d] = (sums[d] / counts[d]) / mean
	}
	for i := range sv.Values {
		d := (sv.Start + i) % 7
		if factors[d] > 0 {
			sv.Values[i] /= factors[d]
		}
	}
	return factors
}

// Smooth applies a centered moving average of the given odd window.
func (sv *SeriesView) Smooth(window int) error {
	if window < 1 || window%2 == 0 {
		return fmt.Errorf("datastream: smoothing window must be odd and positive, got %d", window)
	}
	half := window / 2
	out := make([]float64, len(sv.Values))
	for i := range sv.Values {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(sv.Values) {
			hi = len(sv.Values) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += sv.Values[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	sv.Values = out
	return nil
}

// Pipeline chains curation steps against a Store with provenance logging.
type Pipeline struct {
	store  *Store
	source string
}

// NewPipeline creates a curation pipeline for one source.
func NewPipeline(store *Store, source string) *Pipeline {
	return &Pipeline{store: store, source: source}
}

// Curate materializes the as-of view on reportDay over [start, end],
// imputes gaps, removes weekday effects, smooths with the window, and logs
// every step to the store's provenance.
func (p *Pipeline) Curate(reportDay, start, end, smoothWindow int) (*SeriesView, error) {
	view, err := p.store.AsOf(p.source, reportDay)
	if err != nil {
		return nil, err
	}
	sv, err := Dense(view, start, end)
	if err != nil {
		return nil, err
	}
	p.step("dense", fmt.Sprintf("imputed=%d", sv.MissingCount()))
	factors := sv.DeWeekday()
	p.step("de-weekday", fmt.Sprintf("factors=%.2v", factors))
	if smoothWindow > 1 {
		if err := sv.Smooth(smoothWindow); err != nil {
			return nil, err
		}
		p.step("smooth", fmt.Sprintf("window=%d", smoothWindow))
	}
	return sv, nil
}

func (p *Pipeline) step(op, detail string) {
	p.store.mu.Lock()
	p.store.logLocked("curate:"+op, fmt.Sprintf("source=%s %s", p.source, detail))
	p.store.mu.Unlock()
}

// --- synthetic surveillance generator ---

// FeedConfig distorts a true incidence series into a realistic surveillance
// feed (paper: "heterogeneous, changing, and incomplete" data).
type FeedConfig struct {
	// ReportLag delays each event day's first report by this many days.
	ReportLag int
	// BackfillDays spreads each day's count over this many revisions:
	// the first report carries an undercount that later revisions restore.
	BackfillDays int
	// WeekdayEffect scales weekend reports down by this factor (0.7 = -30%).
	WeekdayEffect float64
	// MissingProb drops a day's report entirely.
	MissingProb float64
	// Noise is multiplicative lognormal observation noise (sigma of log).
	Noise float64
}

// SyntheticFeed renders truth into a stream of observations ordered by
// report day. Deterministic given rng.
func SyntheticFeed(truth []float64, cfg FeedConfig, rng *rand.Rand) []Observation {
	if cfg.BackfillDays < 1 {
		cfg.BackfillDays = 1
	}
	if cfg.WeekdayEffect <= 0 {
		cfg.WeekdayEffect = 1
	}
	var obs []Observation
	for day, v := range truth {
		if rng.Float64() < cfg.MissingProb {
			continue
		}
		noisy := v * math.Exp(cfg.Noise*rng.NormFloat64())
		if day%7 >= 5 { // weekend
			noisy *= cfg.WeekdayEffect
		}
		// Backfill: report fractions accumulating to the full value.
		for k := 1; k <= cfg.BackfillDays; k++ {
			frac := float64(k) / float64(cfg.BackfillDays)
			obs = append(obs, Observation{
				EventDay:  day,
				ReportDay: day + cfg.ReportLag + (k - 1),
				Value:     noisy * frac,
			})
		}
	}
	sort.SliceStable(obs, func(i, j int) bool { return obs[i].ReportDay < obs[j].ReportDay })
	return obs
}
