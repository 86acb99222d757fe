package datastream

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"osprey/internal/epi"
)

func TestIngestAndFinal(t *testing.T) {
	s := NewStore()
	n := s.Ingest("cases", []Observation{
		{EventDay: 0, ReportDay: 1, Value: 10},
		{EventDay: 1, ReportDay: 2, Value: 20},
	})
	if n != 2 || s.Len() != 2 {
		t.Fatalf("ingest = %d, len = %d", n, s.Len())
	}
	final, err := s.Final("cases")
	if err != nil {
		t.Fatal(err)
	}
	if final[0] != 10 || final[1] != 20 {
		t.Fatalf("final = %v", final)
	}
	if _, err := s.Final("deaths"); err == nil {
		t.Fatal("unknown source must error")
	}
}

func TestAsOfVintages(t *testing.T) {
	s := NewStore()
	s.Ingest("cases", []Observation{
		{EventDay: 5, ReportDay: 6, Value: 50},  // first report, undercount
		{EventDay: 5, ReportDay: 8, Value: 80},  // revision
		{EventDay: 5, ReportDay: 10, Value: 95}, // final
		{EventDay: 6, ReportDay: 7, Value: 30},
	})
	// As of day 6: only the first report of day 5 is visible.
	v, err := s.AsOf("cases", 6)
	if err != nil {
		t.Fatal(err)
	}
	if v[5] != 50 {
		t.Fatalf("vintage day 6: %v", v)
	}
	if _, ok := v[6]; ok {
		t.Fatal("day 6 report should not be visible on day 6 (reported day 7)")
	}
	// As of day 8: revision applies.
	v, _ = s.AsOf("cases", 8)
	if v[5] != 80 || v[6] != 30 {
		t.Fatalf("vintage day 8: %v", v)
	}
	// Final: all revisions.
	v, _ = s.Final("cases")
	if v[5] != 95 {
		t.Fatalf("final: %v", v)
	}
}

func TestAsOfTieBreaksBySequence(t *testing.T) {
	s := NewStore()
	s.Ingest("x", []Observation{{EventDay: 1, ReportDay: 2, Value: 1}})
	s.Ingest("x", []Observation{{EventDay: 1, ReportDay: 2, Value: 7}}) // correction, same day
	v, _ := s.Final("x")
	if v[1] != 7 {
		t.Fatalf("same-day correction not applied: %v", v)
	}
}

func TestProvenanceLog(t *testing.T) {
	s := NewStore()
	s.Ingest("cases", []Observation{{EventDay: 0, ReportDay: 0, Value: 1}})
	p := NewPipeline(s, "cases")
	if _, err := p.Curate(10, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	log := s.Provenance()
	if len(log) < 3 {
		t.Fatalf("provenance entries = %d, want ingest + curation steps", len(log))
	}
	var ops []string
	for _, e := range log {
		ops = append(ops, e.Op)
	}
	joined := strings.Join(ops, ",")
	if !strings.Contains(joined, "ingest") || !strings.Contains(joined, "curate:dense") {
		t.Fatalf("ops = %v", ops)
	}
}

func TestDenseImputation(t *testing.T) {
	view := map[int]float64{0: 10, 3: 40, 5: 60}
	sv, err := Dense(view, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40, 50, 60, 60} // interior linear, trailing carry
	for i, w := range want {
		if math.Abs(sv.Values[i]-w) > 1e-9 {
			t.Fatalf("values = %v, want %v", sv.Values, want)
		}
	}
	if sv.MissingCount() != 4 {
		t.Fatalf("missing = %d, want 4", sv.MissingCount())
	}
	// Leading gap carries first value back.
	sv, _ = Dense(map[int]float64{2: 5}, 0, 3)
	if sv.Values[0] != 5 || sv.Values[3] != 5 {
		t.Fatalf("edge fill = %v", sv.Values)
	}
	if _, err := Dense(map[int]float64{}, 0, 3); err == nil {
		t.Fatal("all-missing must error")
	}
	if _, err := Dense(view, 5, 0); err == nil {
		t.Fatal("inverted range must error")
	}
}

func TestDeWeekday(t *testing.T) {
	// Constant series of 100 with weekends (day%7 in {5,6}) at 70.
	sv := &SeriesView{Start: 0, Values: make([]float64, 28), Missing: make([]bool, 28)}
	for i := range sv.Values {
		if i%7 >= 5 {
			sv.Values[i] = 70
		} else {
			sv.Values[i] = 100
		}
	}
	factors := sv.DeWeekday()
	if factors[5] >= 1 || factors[0] <= 1 {
		t.Fatalf("factors = %v", factors)
	}
	// After correction the series is near-constant.
	min, max := sv.Values[0], sv.Values[0]
	for _, v := range sv.Values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 1e-9 {
		t.Fatalf("de-weekday left spread %v (values %v)", max-min, sv.Values[:8])
	}
}

func TestSmooth(t *testing.T) {
	sv := &SeriesView{Start: 0, Values: []float64{0, 10, 0, 10, 0}, Missing: make([]bool, 5)}
	if err := sv.Smooth(3); err != nil {
		t.Fatal(err)
	}
	// Interior points become local means.
	if math.Abs(sv.Values[1]-10.0/3) > 1e-9 || math.Abs(sv.Values[2]-20.0/3) > 1e-9 {
		t.Fatalf("smoothed = %v", sv.Values)
	}
	if err := sv.Smooth(2); err == nil {
		t.Fatal("even window must error")
	}
	if err := sv.Smooth(0); err == nil {
		t.Fatal("zero window must error")
	}
}

func TestSyntheticFeedAndCurationRecoverTruth(t *testing.T) {
	// End-to-end curation check: generate a distorted feed from a known
	// epidemic; the pipeline must reconstruct truth much better than the
	// raw first-report vintage does.
	truthSeries, err := epi.RunSEIR(epi.State{S: 99990, I: 10},
		epi.Params{Beta: 0.4, Sigma: 0.25, Gamma: 0.15}, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := truthSeries.Incidence
	rng := rand.New(rand.NewSource(3))
	feed := SyntheticFeed(truth, FeedConfig{
		ReportLag: 2, BackfillDays: 3, WeekdayEffect: 0.6,
		MissingProb: 0.05, Noise: 0.05,
	}, rng)
	store := NewStore()
	store.Ingest("cases", feed)

	// Raw latest view, densified but uncurated.
	rawView, err := store.AsOf("cases", 200)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Dense(rawView, 0, 119)
	if err != nil {
		t.Fatal(err)
	}
	rawErr := RMSE(raw, truth)

	curated, err := NewPipeline(store, "cases").Curate(200, 0, 119, 7)
	if err != nil {
		t.Fatal(err)
	}
	curErr := RMSE(curated, truth)
	t.Logf("raw RMSE %.1f, curated RMSE %.1f", rawErr, curErr)
	if curErr >= rawErr {
		t.Fatalf("curation did not improve: raw %.1f vs curated %.1f", rawErr, curErr)
	}
}

func TestBackfillUndercountsEarlyVintages(t *testing.T) {
	truth := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	rng := rand.New(rand.NewSource(5))
	feed := SyntheticFeed(truth, FeedConfig{BackfillDays: 4, WeekdayEffect: 1}, rng)
	store := NewStore()
	store.Ingest("cases", feed)
	early, err := store.AsOf("cases", 4)
	if err != nil {
		t.Fatal(err)
	}
	final, _ := store.Final("cases")
	// Day 4's first report must undercount its final value.
	if early[4] >= final[4] {
		t.Fatalf("early vintage %v not below final %v", early[4], final[4])
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	s.Ingest("a", []Observation{{EventDay: 1, ReportDay: 1, Value: 5}})
	s.Ingest("b", []Observation{{EventDay: 2, ReportDay: 3, Value: 6}})
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("restored len = %d", s2.Len())
	}
	srcs := s2.Sources()
	if len(srcs) != 2 || srcs[0] != "a" || srcs[1] != "b" {
		t.Fatalf("sources = %v", srcs)
	}
	if _, err := Restore([]byte("{")); err == nil {
		t.Fatal("bad snapshot must error")
	}
}

func TestConcurrentIngest(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Ingest("src", []Observation{{EventDay: i, ReportDay: i + g, Value: 1}})
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("len = %d", s.Len())
	}
}

// Property: AsOf is monotone in report day — later vintages never lose
// event days.
func TestPropertyVintageMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := make([]float64, 30)
		for i := range truth {
			truth[i] = rng.Float64() * 100
		}
		feed := SyntheticFeed(truth, FeedConfig{
			ReportLag: rng.Intn(3), BackfillDays: 1 + rng.Intn(3),
			MissingProb: 0.1, WeekdayEffect: 0.8,
		}, rng)
		s := NewStore()
		s.Ingest("x", feed)
		prev := 0
		for day := 0; day < 40; day += 5 {
			v, err := s.AsOf("x", day)
			if err != nil {
				continue
			}
			if len(v) < prev {
				return false
			}
			prev = len(v)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dense output has no NaNs and respects the requested length.
func TestPropertyDenseComplete(t *testing.T) {
	f := func(days []uint8, vals []float64) bool {
		view := map[int]float64{}
		for i, d := range days {
			v := 1.0
			if i < len(vals) && !math.IsNaN(vals[i]) && !math.IsInf(vals[i], 0) {
				v = vals[i]
			}
			view[int(d%30)] = v
		}
		if len(view) == 0 {
			return true
		}
		sv, err := Dense(view, 0, 29)
		if err != nil {
			return false
		}
		if len(sv.Values) != 30 {
			return false
		}
		for _, v := range sv.Values {
			if math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Sources returns the distinct source names seen, sorted.
func (s *Store) Sources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[string]bool{}
	for _, r := range s.records {
		set[r.Source] = true
	}
	out := make([]string, 0, len(set))
	for src := range set {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// Final returns the fully revised series for a source.
func (s *Store) Final(source string) (map[int]float64, error) {
	return s.AsOf(source, math.MaxInt32)
}

// Snapshot serializes the store (records + provenance) for wide-area
// staging through ProxyStore.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(struct {
		Records []Record          `json:"records"`
		Log     []ProvenanceEntry `json:"log"`
		Seq     int64             `json:"seq"`
	}{s.records, s.log, s.seq})
}

// Restore loads a snapshot produced by Snapshot.
func Restore(data []byte) (*Store, error) {
	var w struct {
		Records []Record          `json:"records"`
		Log     []ProvenanceEntry `json:"log"`
		Seq     int64             `json:"seq"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("datastream: restore: %w", err)
	}
	return &Store{records: w.Records, log: w.Log, seq: w.Seq}, nil
}

// RMSE measures curated values against the truth over the overlap.
func RMSE(sv *SeriesView, truth []float64) float64 {
	var sum float64
	n := 0
	for i := range sv.Values {
		day := sv.Start + i
		if day < 0 || day >= len(truth) {
			continue
		}
		d := sv.Values[i] - truth[day]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}
