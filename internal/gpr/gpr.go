// Package gpr implements Gaussian process regression from scratch: the
// surrogate model the paper's example workflow trains on completed Ackley
// evaluations to reprioritize the remaining tasks (§VI). It provides an RBF
// (squared-exponential) kernel, exact inference via Cholesky decomposition,
// and grid-search hyperparameter selection by log marginal likelihood.
package gpr

import (
	"errors"
	"fmt"
	"math"
)

// Params are the RBF-kernel hyperparameters.
type Params struct {
	// LengthScale is the RBF length scale ℓ.
	LengthScale float64 `json:"length_scale"`
	// SignalVar is the signal variance σf².
	SignalVar float64 `json:"signal_var"`
	// NoiseVar is the observation noise variance σn² added to the diagonal.
	NoiseVar float64 `json:"noise_var"`
}

// ErrNotFitted is returned by Predict before Fit.
var ErrNotFitted = errors.New("gpr: model not fitted")

// GP is a fitted Gaussian process regressor.
type GP struct {
	params Params
	x      [][]float64
	alpha  []float64
	chol   [][]float64 // lower-triangular Cholesky factor of K + σn²I
	yMean  float64
	lml    float64
}

// rbf evaluates the squared-exponential kernel.
func rbf(a, b []float64, p Params) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return p.SignalVar * math.Exp(-d2/(2*p.LengthScale*p.LengthScale))
}

// Fit trains a GP on inputs x and targets y with the given hyperparameters.
func Fit(x [][]float64, y []float64, p Params) (*GP, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("gpr: need matching non-empty x (%d) and y (%d)", len(x), len(y))
	}
	if p.LengthScale <= 0 || p.SignalVar <= 0 || p.NoiseVar < 0 {
		return nil, fmt.Errorf("gpr: invalid hyperparameters %+v", p)
	}
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return nil, fmt.Errorf("gpr: x[%d] has dimension %d, want %d", i, len(xi), dim)
		}
	}

	// Center the targets so the GP prior mean matches the data mean.
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - mean
	}

	// K + σn² I.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := rbf(x[i], x[j], p)
			k[i][j] = v
			k[j][i] = v
		}
		k[i][i] += p.NoiseVar + 1e-10 // jitter for numerical stability
	}
	chol, err := cholesky(k)
	if err != nil {
		return nil, err
	}
	// alpha = K⁻¹ yc via two triangular solves.
	z := solveLower(chol, yc)
	alpha := solveUpperT(chol, z)

	// Log marginal likelihood: -½ ycᵀα - Σ log Lᵢᵢ - n/2 log 2π.
	lml := 0.0
	for i := range yc {
		lml -= 0.5 * yc[i] * alpha[i]
	}
	for i := 0; i < n; i++ {
		lml -= math.Log(chol[i][i])
	}
	lml -= float64(n) / 2 * math.Log(2*math.Pi)

	xc := make([][]float64, n)
	for i := range x {
		xc[i] = append([]float64(nil), x[i]...)
	}
	return &GP{params: p, x: xc, alpha: alpha, chol: chol, yMean: mean, lml: lml}, nil
}

// FitGrid fits GPs over a grid of length scales and signal variances and
// returns the model maximizing log marginal likelihood — the repository's
// stand-in for scikit-learn's optimizer.
func FitGrid(x [][]float64, y []float64, lengthScales, signalVars []float64, noise float64) (*GP, error) {
	if len(lengthScales) == 0 {
		lengthScales = []float64{0.1, 0.3, 1, 3, 10}
	}
	if len(signalVars) == 0 {
		signalVars = []float64{0.5, 1, 2, 5}
	}
	var best *GP
	var firstErr error
	for _, ls := range lengthScales {
		for _, sv := range signalVars {
			gp, err := Fit(x, y, Params{LengthScale: ls, SignalVar: sv, NoiseVar: noise})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if best == nil || gp.lml > best.lml {
				best = gp
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gpr: grid search failed: %w", firstErr)
	}
	return best, nil
}

// Params returns the fitted hyperparameters.
func (g *GP) Params() Params { return g.params }

// Predict returns the posterior mean and variance at query point q.
func (g *GP) Predict(q []float64) (mean, variance float64, err error) {
	if g == nil || len(g.x) == 0 {
		return 0, 0, ErrNotFitted
	}
	if len(q) != len(g.x[0]) {
		return 0, 0, fmt.Errorf("gpr: query dimension %d, want %d", len(q), len(g.x[0]))
	}
	n := len(g.x)
	ks := make([]float64, n)
	for i := range g.x {
		ks[i] = rbf(q, g.x[i], g.params)
	}
	mean = g.yMean
	for i := range ks {
		mean += ks[i] * g.alpha[i]
	}
	// variance = k(q,q) - vᵀv with v = L⁻¹ k*.
	v := solveLower(g.chol, ks)
	variance = g.params.SignalVar
	for _, vi := range v {
		variance -= vi * vi
	}
	if variance < 0 {
		variance = 0
	}
	return mean, variance, nil
}

// PredictBatch evaluates the posterior mean for each query point.
func (g *GP) PredictBatch(qs [][]float64) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		m, _, err := g.Predict(q)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// --- linear algebra ---

// cholesky returns the lower-triangular L with L Lᵀ = a. a must be symmetric
// positive definite.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("gpr: matrix not positive definite at %d (%g)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// solveLower solves L z = b for lower-triangular L.
func solveLower(l [][]float64, b []float64) []float64 {
	n := len(l)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * z[k]
		}
		z[i] = sum / l[i][i]
	}
	return z
}

// solveUpperT solves Lᵀ x = z for lower-triangular L.
func solveUpperT(l [][]float64, z []float64) []float64 {
	n := len(l)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}
