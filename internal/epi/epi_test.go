package epi

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	testInit  = State{S: 99990, E: 0, I: 10, R: 0}
	testTruth = Params{Beta: 0.4, Sigma: 0.25, Gamma: 0.15}
)

func TestSEIRConservesPopulation(t *testing.T) {
	series, err := RunSEIR(testInit, testTruth, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	n0 := testInit.N()
	if math.Abs(series.Final.N()-n0) > 1e-6*n0 {
		t.Fatalf("population drifted: %v -> %v", n0, series.Final.N())
	}
}

func TestSEIREpidemicShape(t *testing.T) {
	series, err := RunSEIR(testInit, testTruth, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	// R0 = 0.4/0.15 ≈ 2.67 > 1: a real epidemic occurs and subsides.
	if testTruth.R0() <= 1 {
		t.Fatalf("test params have R0 = %v", testTruth.R0())
	}
	if series.PeakDay <= 5 || series.PeakDay >= 295 {
		t.Fatalf("peak day = %d, want an interior peak", series.PeakDay)
	}
	peak := series.Infectious[series.PeakDay]
	if peak < 1000 {
		t.Fatalf("peak infectious = %v, too small for R0 %.2f", peak, testTruth.R0())
	}
	if last := series.Infectious[len(series.Infectious)-1]; last > peak/10 {
		t.Fatalf("epidemic did not subside: final I = %v, peak %v", last, peak)
	}
	// Incidence is non-negative everywhere.
	for d, v := range series.Incidence {
		if v < 0 {
			t.Fatalf("negative incidence %v on day %d", v, d)
		}
	}
}

func TestSubcriticalEpidemicDiesOut(t *testing.T) {
	p := Params{Beta: 0.1, Sigma: 0.25, Gamma: 0.2} // R0 = 0.5
	series, err := RunSEIR(testInit, p, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	attack := series.Final.R / testInit.N()
	if attack > 0.01 {
		t.Fatalf("subcritical attack rate = %v, want ~0", attack)
	}
}

func TestFinalSizeGrowsWithR0(t *testing.T) {
	low, _ := RunSEIR(testInit, Params{Beta: 0.2, Sigma: 0.25, Gamma: 0.15}, 500, 4)
	high, _ := RunSEIR(testInit, Params{Beta: 0.6, Sigma: 0.25, Gamma: 0.15}, 500, 4)
	if high.Final.R <= low.Final.R {
		t.Fatalf("final size: R0 high %v <= R0 low %v", high.Final.R, low.Final.R)
	}
}

func TestSEIRValidation(t *testing.T) {
	if _, err := RunSEIR(testInit, Params{}, 10, 4); err == nil {
		t.Fatal("zero rates must error")
	}
	if _, err := RunSEIR(testInit, testTruth, 0, 4); err == nil {
		t.Fatal("zero days must error")
	}
	if _, err := RunSEIR(State{}, testTruth, 10, 4); err == nil {
		t.Fatal("empty population must error")
	}
}

func TestStochasticSEIRConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series, err := RunStochasticSEIR(testInit, testTruth, 150, rng)
	if err != nil {
		t.Fatal(err)
	}
	if series.Final.N() != testInit.N() {
		t.Fatalf("stochastic population drifted: %v -> %v", testInit.N(), series.Final.N())
	}
}

func TestStochasticTracksDeterministic(t *testing.T) {
	// Ensemble mean of the stochastic final size should be near the ODE's.
	det, _ := RunSEIR(testInit, testTruth, 400, 4)
	var sum float64
	const reps = 20
	for i := 0; i < reps; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		s, err := RunStochasticSEIR(testInit, testTruth, 400, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += s.Final.R
	}
	mean := sum / reps
	if math.Abs(mean-det.Final.R) > 0.15*det.Final.R {
		t.Fatalf("stochastic mean final size %v vs deterministic %v", mean, det.Final.R)
	}
}

func TestStochasticDeterministicSeed(t *testing.T) {
	a, _ := RunStochasticSEIR(testInit, testTruth, 50, rand.New(rand.NewSource(9)))
	b, _ := RunStochasticSEIR(testInit, testTruth, 50, rand.New(rand.NewSource(9)))
	for d := range a.Incidence {
		if a.Incidence[d] != b.Incidence[d] {
			t.Fatalf("same seed diverged on day %d", d)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Small-n exact path.
	var sum int64
	const reps = 20000
	for i := 0; i < reps; i++ {
		sum += binomial(rng, 10, 0.3)
	}
	if mean := float64(sum) / reps; math.Abs(mean-3) > 0.1 {
		t.Fatalf("binomial(10, .3) mean = %v", mean)
	}
	// Large-n normal path.
	sum = 0
	for i := 0; i < 2000; i++ {
		sum += binomial(rng, 100000, 0.25)
	}
	if mean := float64(sum) / 2000; math.Abs(mean-25000) > 150 {
		t.Fatalf("binomial(1e5, .25) mean = %v", mean)
	}
	// Edge cases.
	if binomial(rng, 0, 0.5) != 0 || binomial(rng, 5, 0) != 0 || binomial(rng, 5, 1) != 5 {
		t.Fatal("binomial edge cases wrong")
	}
}

// Property: stochastic compartments are never negative and never exceed N.
func TestPropertyStochasticBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series, err := RunStochasticSEIR(State{S: 5000, I: 50}, testTruth, 100, rng)
		if err != nil {
			return false
		}
		for _, v := range series.Infectious {
			if v < 0 || v > 5050 {
				return false
			}
		}
		return series.Final.S >= 0 && series.Final.E >= 0 &&
			series.Final.I >= 0 && series.Final.R >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationLossIdentifiesTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	target, err := SyntheticTarget(testInit, testTruth, 120, 0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	lossTruth, err := target.Loss(testTruth)
	if err != nil {
		t.Fatal(err)
	}
	lossWrong, err := target.Loss(Params{Beta: 1.2, Sigma: 0.5, Gamma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if lossTruth >= lossWrong {
		t.Fatalf("truth loss %v >= wrong loss %v", lossTruth, lossWrong)
	}
	if lossTruth > 0.05 {
		t.Fatalf("truth loss %v too large for 2%% noise", lossTruth)
	}
}

func TestParamsFromVector(t *testing.T) {
	p, err := ParamsFromVector([]float64{0, 0, 0})
	if err != nil || p.Beta != 0.05 || p.Sigma != 0.1 || p.Gamma != 0.05 {
		t.Fatalf("lower corner = %+v, %v", p, err)
	}
	p, _ = ParamsFromVector([]float64{1, 1, 1})
	if p.Beta != 1.5 || p.Sigma != 1 || p.Gamma != 1 {
		t.Fatalf("upper corner = %+v", p)
	}
	// Out-of-box values clamp.
	p, _ = ParamsFromVector([]float64{-5, 7, 0.5})
	if p.Beta != 0.05 || p.Sigma != 1 {
		t.Fatalf("clamped = %+v", p)
	}
	if _, err := ParamsFromVector([]float64{1}); err == nil {
		t.Fatal("wrong dimension must error")
	}
}

func TestCalibrationObjectiveTaskFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	target, _ := SyntheticTarget(testInit, testTruth, 60, 0.02, rng)
	exec := target.Objective()
	res, err := exec(`{"x": [0.24, 0.17, 0.11]}`)
	if err != nil {
		t.Fatalf("objective: %v", err)
	}
	if res == "" {
		t.Fatal("empty result")
	}
	if _, err := exec(`{bad json`); err == nil {
		t.Fatal("bad payload must error")
	}
	if _, err := exec(`{"x": [0.5]}`); err == nil {
		t.Fatal("wrong dimension must error")
	}
}

func TestTargetMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	target, _ := SyntheticTarget(testInit, testTruth, 30, 0.05, rng)
	data, err := target.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadTarget(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Days != 30 || len(got.Incidence) != 30 || got.Init != target.Init {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := LoadTarget([]byte("??")); err == nil {
		t.Fatal("bad target must error")
	}
}

func TestR0(t *testing.T) {
	if r := (Params{Beta: 0.5, Sigma: 1, Gamma: 0.25}).R0(); r != 2 {
		t.Fatalf("R0 = %v", r)
	}
}

// Marshal serializes the target (for shipping to worker pools).
func (t *CalibrationTarget) Marshal() ([]byte, error) { return json.Marshal(t) }

// LoadTarget parses a serialized target.
func LoadTarget(data []byte) (*CalibrationTarget, error) {
	var t CalibrationTarget
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("epi: bad target: %w", err)
	}
	return &t, nil
}
