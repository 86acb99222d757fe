package ensemble

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"osprey/internal/core"
	"osprey/internal/epi"
	"osprey/internal/pool"
)

var (
	testInit   = epi.State{S: 99990, I: 10}
	testParams = epi.Params{Beta: 0.4, Sigma: 0.25, Gamma: 0.15}
)

func TestQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	if quantileSorted([]float64{7}, 0.3) != 7 {
		t.Error("single-element quantile")
	}
}

func makeTrajectories(n, horizon int, seed int64) []Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Trajectory, n)
	for i := range out {
		inc := make([]float64, horizon)
		for d := range inc {
			inc[d] = 50 + 10*rng.NormFloat64()
		}
		out[i] = Trajectory{Incidence: inc, Seed: int64(i)}
	}
	return out
}

func TestAggregateFanShape(t *testing.T) {
	trs := makeTrajectories(200, 14, 1)
	f, err := Aggregate(trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Members != 200 || f.Horizon != 14 || len(f.Levels) != len(HubQuantiles) {
		t.Fatalf("forecast = %+v", f)
	}
	// Quantiles are monotone in level for every day.
	sorted := append([]float64(nil), f.Levels...)
	sort.Float64s(sorted)
	for d := 0; d < f.Horizon; d++ {
		prev := math.Inf(-1)
		for _, q := range sorted {
			s, err := f.At(q)
			if err != nil {
				t.Fatal(err)
			}
			if s[d] < prev-1e-9 {
				t.Fatalf("quantile crossing at day %d level %v", d, q)
			}
			prev = s[d]
		}
	}
	// Median near the generating mean of 50.
	med := f.Median()
	for d, v := range med {
		if v < 45 || v > 55 {
			t.Fatalf("median day %d = %v, want ~50", d, v)
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate(nil, nil); err == nil {
		t.Fatal("empty ensemble must error")
	}
	ragged := []Trajectory{
		{Incidence: []float64{1, 2}},
		{Incidence: []float64{1}},
	}
	if _, err := Aggregate(ragged, nil); err == nil {
		t.Fatal("ragged trajectories must error")
	}
}

func TestRunnerTaskFunc(t *testing.T) {
	run := Runner()
	payload := `{"params": {"beta": 0.4, "sigma": 0.25, "gamma": 0.15},
		"init": {"S": 9990, "I": 10}, "horizon": 20, "seed": 3}`
	res, err := run(payload)
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	if res == "" {
		t.Fatal("empty result")
	}
	// Determinism: same payload, same trajectory.
	res2, _ := run(payload)
	if res != res2 {
		t.Fatal("runner not deterministic for fixed seed")
	}
	if _, err := run("{bad"); err == nil {
		t.Fatal("bad payload must error")
	}
	if _, err := run(`{"params": {}, "init": {"S": 1}, "horizon": 5}`); err == nil {
		t.Fatal("invalid params must error")
	}
}

func TestRunThroughTaskDatabase(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p, err := pool.New(db, pool.Config{Name: "ens", Workers: 8, BatchSize: 16, WorkType: 3},
		Runner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	f, err := Run(ctx, db, Config{
		ExpID: "fc", WorkType: 3, Members: 60, Horizon: 28,
		Init: testInit, Params: testParams, Seed: 100,
		PollTimeout: 10 * time.Second,
	}, []float64{0.025, 0.25, 0.5, 0.75, 0.975})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f.Members != 60 || f.Horizon != 28 {
		t.Fatalf("forecast = members %d horizon %d", f.Members, f.Horizon)
	}
	// Early epidemic: median incidence must be positive and growing-ish.
	med := f.Median()
	if med[27] <= 0 {
		t.Fatalf("median day 27 = %v", med[27])
	}
}

func TestCoverageAndWIS(t *testing.T) {
	// Forecast from the true model must cover a same-model realization
	// well, and must beat a badly biased forecast on WIS.
	trs := make([]Trajectory, 150)
	for i := range trs {
		series, err := epi.RunStochasticSEIR(testInit, testParams, 28, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = Trajectory{Incidence: series.Incidence}
	}
	good, err := Aggregate(trs, []float64{0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh "observed" trajectory from the same process.
	obsSeries, _ := epi.RunStochasticSEIR(testInit, testParams, 28, rand.New(rand.NewSource(9999)))
	observed := obsSeries.Incidence

	cov, err := Coverage(good, observed, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if cov < 0.8 {
		t.Fatalf("95%% band coverage = %v, want high", cov)
	}
	wisGood, err := WIS(good, observed)
	if err != nil {
		t.Fatal(err)
	}
	// Biased forecast: same fan shifted up by a lot.
	biased := &Forecast{
		Levels: good.Levels, Horizon: good.Horizon, Members: good.Members,
		Quantiles: map[string][]float64{},
	}
	for k, s := range good.Quantiles {
		shifted := make([]float64, len(s))
		for i, v := range s {
			shifted[i] = v + 500
		}
		biased.Quantiles[k] = shifted
	}
	wisBad, err := WIS(biased, observed)
	if err != nil {
		t.Fatal(err)
	}
	if wisGood >= wisBad {
		t.Fatalf("WIS: good %v >= biased %v", wisGood, wisBad)
	}
}

func TestIntervalScore(t *testing.T) {
	// Inside the interval: just the width.
	if s := IntervalScore(10, 20, 15, 0.1); s != 10 {
		t.Fatalf("inside = %v", s)
	}
	// Below: width + 2/alpha * miss.
	if s := IntervalScore(10, 20, 5, 0.1); math.Abs(s-(10+20*5)) > 1e-9 {
		t.Fatalf("below = %v", s)
	}
	// Above.
	if s := IntervalScore(10, 20, 22, 0.5); math.Abs(s-(10+4*2)) > 1e-9 {
		t.Fatalf("above = %v", s)
	}
}

func TestWISErrors(t *testing.T) {
	f := &Forecast{Levels: []float64{0.5}, Horizon: 5,
		Quantiles: map[string][]float64{"0.500": {1, 2, 3, 4, 5}}}
	if _, err := WIS(f, []float64{1}); err == nil {
		t.Fatal("short observations must error")
	}
	if _, err := WIS(f, []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("median-only forecast has no intervals; must error")
	}
	if _, err := Coverage(f, []float64{1, 2, 3, 4, 5}, 0.05); err == nil {
		t.Fatal("missing quantiles must error")
	}
}

func TestParamDrawsEnsemble(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p, _ := pool.New(db, pool.Config{Name: "ens", Workers: 4, WorkType: 3}, Runner(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	draws := []epi.Params{
		{Beta: 0.3, Sigma: 0.25, Gamma: 0.15},
		{Beta: 0.5, Sigma: 0.25, Gamma: 0.15},
	}
	f, err := Run(ctx, db, Config{
		ExpID: "pp", WorkType: 3, Members: 20, Horizon: 14,
		Init: testInit, ParamDraws: draws, Seed: 7,
		PollTimeout: 10 * time.Second,
	}, []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	// Parameter uncertainty widens the fan relative to a single-parameter
	// ensemble with the same seeds.
	single, err := Run(ctx, db, Config{
		ExpID: "sp", WorkType: 3, Members: 20, Horizon: 14,
		Init: testInit, Params: draws[0], Seed: 7,
		PollTimeout: 10 * time.Second,
	}, []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	wideLo, _ := f.At(0.25)
	wideHi, _ := f.At(0.75)
	narrowLo, _ := single.At(0.25)
	narrowHi, _ := single.At(0.75)
	d := f.Horizon - 1
	if (wideHi[d] - wideLo[d]) <= (narrowHi[d]-narrowLo[d])*0.9 {
		t.Fatalf("mixed-parameter fan not wider: %v vs %v",
			wideHi[d]-wideLo[d], narrowHi[d]-narrowLo[d])
	}
}

// Property: aggregated quantiles always lie within [min, max] of the
// member values for each day.
func TestPropertyQuantileBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		trs := makeTrajectories(n, 5, seed)
		fc, err := Aggregate(trs, []float64{0.05, 0.5, 0.95})
		if err != nil {
			return false
		}
		for d := 0; d < 5; d++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, tr := range trs {
				lo = math.Min(lo, tr.Incidence[d])
				hi = math.Max(hi, tr.Incidence[d])
			}
			for _, q := range fc.Levels {
				s, _ := fc.At(q)
				if s[d] < lo-1e-9 || s[d] > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
