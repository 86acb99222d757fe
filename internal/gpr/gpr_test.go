package gpr

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"osprey/internal/objective"
)

func TestCholeskyKnownMatrix(t *testing.T) {
	a := [][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	}
	want := [][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	}
	l, err := cholesky(a)
	if err != nil {
		t.Fatalf("cholesky: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l[i][j]-want[i][j]) > 1e-9 {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if _, err := cholesky(a); err == nil {
		t.Fatal("indefinite matrix must fail")
	}
}

// Property: for random SPD matrices A = B Bᵀ + I, chol(A) reconstructs A.
func TestPropertyCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, n)
			for j := range b[i] {
				b[i][j] = rng.NormFloat64()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				for k := 0; k < n; k++ {
					a[i][j] += b[i][k] * b[j][k]
				}
				if i == j {
					a[i][j]++
				}
			}
		}
		l, err := cholesky(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var v float64
				for k := 0; k < n; k++ {
					v += l[i][k] * l[j][k]
				}
				if math.Abs(v-a[i][j]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangularSolves(t *testing.T) {
	l := [][]float64{{2, 0}, {1, 3}}
	// L z = b with b = (4, 11) → z = (2, 3).
	z := solveLower(l, []float64{4, 11})
	if math.Abs(z[0]-2) > 1e-12 || math.Abs(z[1]-3) > 1e-12 {
		t.Fatalf("z = %v", z)
	}
	// Lᵀ x = z → x solves (2 1; 0 3) x = (2, 3) → x = (1/2, 1).
	x := solveUpperT(l, z)
	if math.Abs(x[0]-0.5) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestFitInterpolatesTrainingPoints(t *testing.T) {
	// Noise-free GP must (nearly) interpolate its training data.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 1, 4, 9}
	gp, err := Fit(x, y, Params{LengthScale: 1, SignalVar: 10, NoiseVar: 1e-8})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i := range x {
		m, v, err := gp.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m-y[i]) > 1e-3 {
			t.Fatalf("mean at x=%v is %v, want %v", x[i], m, y[i])
		}
		if v > 1e-3 {
			t.Fatalf("variance at training point = %v, want ~0", v)
		}
	}
}

func TestPosteriorVarianceGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{1, 2}
	gp, _ := Fit(x, y, Params{LengthScale: 0.5, SignalVar: 1, NoiseVar: 1e-6})
	_, vNear, _ := gp.Predict([]float64{0.5})
	_, vFar, _ := gp.Predict([]float64{10})
	if vFar <= vNear {
		t.Fatalf("vFar = %v <= vNear = %v", vFar, vNear)
	}
	// Far from data, variance approaches the prior signal variance.
	if math.Abs(vFar-1) > 1e-3 {
		t.Fatalf("far-field variance = %v, want ~1", vFar)
	}
}

func TestGPRanksAckleyPoints(t *testing.T) {
	// The acceptance check for the §VI workflow: a GP trained on Ackley
	// evaluations must rank unseen near-optimum points better than far ones.
	rng := rand.New(rand.NewSource(42))
	xTrain := objective.SamplePoints(rng, 220, 2, -4, 4)
	yTrain := make([]float64, len(xTrain))
	for i, p := range xTrain {
		yTrain[i] = objective.Ackley(p)
	}
	gp, err := FitGrid(xTrain, yTrain, []float64{0.5, 1, 2}, []float64{10, 30}, 1e-4)
	if err != nil {
		t.Fatalf("FitGrid: %v", err)
	}
	mNear, _, _ := gp.Predict([]float64{0.1, -0.1})
	mFar, _, _ := gp.Predict([]float64{3.5, 3.5})
	if mNear >= mFar {
		t.Fatalf("GP ranks near-optimum worse: near=%v far=%v", mNear, mFar)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultParams()); err == nil {
		t.Fatal("empty fit must error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("ragged inputs must error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, Params{LengthScale: -1, SignalVar: 1}); err == nil {
		t.Fatal("negative length scale must error")
	}
	gp, _ := Fit([][]float64{{1, 2}}, []float64{1}, DefaultParams())
	if _, _, err := gp.Predict([]float64{1}); err == nil {
		t.Fatal("dimension mismatch in Predict must error")
	}
	var nilGP *GP
	if _, _, err := nilGP.Predict([]float64{1}); err != ErrNotFitted {
		t.Fatalf("nil GP Predict err = %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}, {2, 0.5}}
	y := []float64{3, 1, 2}
	gp, _ := Fit(x, y, Params{LengthScale: 1.2, SignalVar: 2, NoiseVar: 1e-5})
	data, err := gp.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	gp2, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for _, q := range [][]float64{{0.5, 0.5}, {-1, 2}, {3, 3}} {
		m1, v1, _ := gp.Predict(q)
		m2, v2, _ := gp2.Predict(q)
		if math.Abs(m1-m2) > 1e-12 || math.Abs(v1-v2) > 1e-12 {
			t.Fatalf("round trip differs at %v: (%v,%v) vs (%v,%v)", q, m1, v1, m2, v2)
		}
	}
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Fatal("bad JSON must error")
	}
	if _, err := Unmarshal([]byte(`{"x": []}`)); err == nil {
		t.Fatal("inconsistent model must error")
	}
}

func TestFitGridPicksBetterLengthScale(t *testing.T) {
	// Data drawn from a smooth function: very short length scales underfit
	// the LML; grid search must not pick the pathological extreme.
	x := make([][]float64, 25)
	y := make([]float64, 25)
	for i := range x {
		xv := float64(i) / 4
		x[i] = []float64{xv}
		y[i] = math.Sin(xv)
	}
	gp, err := FitGrid(x, y, []float64{0.001, 1}, []float64{1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Params().LengthScale != 1 {
		t.Fatalf("grid picked length scale %v", gp.Params().LengthScale)
	}
	if len(gp.x) != 25 {
		t.Fatalf("%d training points, want 25", len(gp.x))
	}
}

func TestPredictBatch(t *testing.T) {
	gp, _ := Fit([][]float64{{0}, {1}}, []float64{0, 1}, DefaultParams())
	out, err := gp.PredictBatch([][]float64{{0}, {0.5}, {1}})
	if err != nil || len(out) != 3 {
		t.Fatalf("PredictBatch = %v, %v", out, err)
	}
	if out[0] > out[1] || out[1] > out[2] {
		t.Fatalf("monotone data produced non-monotone means: %v", out)
	}
	if _, err := gp.PredictBatch([][]float64{{0, 1}}); err == nil {
		t.Fatal("bad dimension must error")
	}
}

// DefaultParams returns a reasonable starting point for unit-scale inputs.
func DefaultParams() Params {
	return Params{LengthScale: 1.0, SignalVar: 1.0, NoiseVar: 1e-6}
}

type gpWire struct {
	Params Params      `json:"params"`
	X      [][]float64 `json:"x"`
	Alpha  []float64   `json:"alpha"`
	Chol   [][]float64 `json:"chol"`
	YMean  float64     `json:"y_mean"`
	LML    float64     `json:"lml"`
}

// Marshal serializes the fitted model.
func (g *GP) Marshal() ([]byte, error) {
	if g == nil || len(g.x) == 0 {
		return nil, ErrNotFitted
	}
	return json.Marshal(gpWire{
		Params: g.params, X: g.x, Alpha: g.alpha, Chol: g.chol, YMean: g.yMean, LML: g.lml,
	})
}

// Unmarshal reconstructs a fitted model serialized with Marshal.
func Unmarshal(data []byte) (*GP, error) {
	var w gpWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("gpr: unmarshal: %w", err)
	}
	if len(w.X) == 0 || len(w.Alpha) != len(w.X) || len(w.Chol) != len(w.X) {
		return nil, errors.New("gpr: unmarshal: inconsistent model")
	}
	return &GP{params: w.Params, x: w.X, alpha: w.Alpha, chol: w.Chol, yMean: w.YMean, lml: w.LML}, nil
}
