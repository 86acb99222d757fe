// Package epi provides the epidemiologic modeling workloads that motivate
// OSPREY (paper §I–II): a deterministic SEIR compartmental model integrated
// with fourth-order Runge–Kutta, a stochastic chain-binomial SEIR for
// ensemble runs, and a calibration objective that scores parameter vectors
// against observed incidence — the task type the platform's worker pools
// execute when used for real epidemic analysis rather than test functions.
package epi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Params are SEIR rate parameters.
type Params struct {
	// Beta is the transmission rate (contacts × infection probability /day).
	Beta float64 `json:"beta"`
	// Sigma is the incubation rate (1/latent period days).
	Sigma float64 `json:"sigma"`
	// Gamma is the recovery rate (1/infectious period days).
	Gamma float64 `json:"gamma"`
}

// Validate checks rate positivity.
func (p Params) Validate() error {
	if p.Beta <= 0 || p.Sigma <= 0 || p.Gamma <= 0 {
		return fmt.Errorf("epi: rates must be positive: %+v", p)
	}
	return nil
}

// R0 returns the basic reproduction number β/γ.
func (p Params) R0() float64 { return p.Beta / p.Gamma }

// State is one SEIR state (counts, not fractions).
type State struct {
	S, E, I, R float64
}

// N returns the total population of the state.
func (s State) N() float64 { return s.S + s.E + s.I + s.R }

// Series is a daily time series of model output.
type Series struct {
	// Incidence is new infections per day (E→I flux).
	Incidence []float64 `json:"incidence"`
	// Infectious is the I compartment per day.
	Infectious []float64 `json:"infectious"`
	// PeakDay is the argmax of Infectious.
	PeakDay int `json:"peak_day"`
	// Final is the state after the last day.
	Final State `json:"-"`
}

// deriv computes SEIR time derivatives.
func deriv(s State, p Params) State {
	n := s.N()
	inf := p.Beta * s.S * s.I / n
	return State{
		S: -inf,
		E: inf - p.Sigma*s.E,
		I: p.Sigma*s.E - p.Gamma*s.I,
		R: p.Gamma * s.I,
	}
}

func add(a, b State, h float64) State {
	return State{S: a.S + h*b.S, E: a.E + h*b.E, I: a.I + h*b.I, R: a.R + h*b.R}
}

// RunSEIR integrates the deterministic SEIR model for days days using RK4
// with stepsPerDay sub-steps (4 is ample for epidemic time scales).
func RunSEIR(init State, p Params, days, stepsPerDay int) (*Series, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if days <= 0 {
		return nil, errors.New("epi: days must be positive")
	}
	if stepsPerDay <= 0 {
		stepsPerDay = 4
	}
	if init.N() <= 0 {
		return nil, errors.New("epi: empty population")
	}
	h := 1.0 / float64(stepsPerDay)
	s := init
	out := &Series{
		Incidence:  make([]float64, days),
		Infectious: make([]float64, days),
	}
	for d := 0; d < days; d++ {
		startR, startE, startI := s.R, s.E, s.I
		for step := 0; step < stepsPerDay; step++ {
			k1 := deriv(s, p)
			k2 := deriv(add(s, k1, h/2), p)
			k3 := deriv(add(s, k2, h/2), p)
			k4 := deriv(add(s, k3, h), p)
			s = State{
				S: s.S + h/6*(k1.S+2*k2.S+2*k3.S+k4.S),
				E: s.E + h/6*(k1.E+2*k2.E+2*k3.E+k4.E),
				I: s.I + h/6*(k1.I+2*k2.I+2*k3.I+k4.I),
				R: s.R + h/6*(k1.R+2*k2.R+2*k3.R+k4.R),
			}
		}
		// New infections this day: flux out of S ≈ ΔE + ΔI + ΔR.
		out.Incidence[d] = (s.E - startE) + (s.I - startI) + (s.R - startR)
		if out.Incidence[d] < 0 {
			out.Incidence[d] = 0
		}
		out.Infectious[d] = s.I
		if s.I > out.Infectious[out.PeakDay] {
			out.PeakDay = d
		}
	}
	out.Final = s
	return out, nil
}

// RunStochasticSEIR simulates a discrete-state chain-binomial SEIR: each day
// individuals move S→E with probability 1-exp(-β I/N), E→I with
// 1-exp(-σ), and I→R with 1-exp(-γ). Multiple replicates with different
// seeds form the ensembles the paper's workflows calibrate.
func RunStochasticSEIR(init State, p Params, days int, rng *rand.Rand) (*Series, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if days <= 0 {
		return nil, errors.New("epi: days must be positive")
	}
	if init.N() <= 0 {
		return nil, errors.New("epi: empty population")
	}
	s, e, i, r := int64(init.S), int64(init.E), int64(init.I), int64(init.R)
	n := float64(s + e + i + r)
	out := &Series{
		Incidence:  make([]float64, days),
		Infectious: make([]float64, days),
	}
	pEI := 1 - math.Exp(-p.Sigma)
	pIR := 1 - math.Exp(-p.Gamma)
	for d := 0; d < days; d++ {
		pSE := 1 - math.Exp(-p.Beta*float64(i)/n)
		newE := binomial(rng, s, pSE)
		newI := binomial(rng, e, pEI)
		newR := binomial(rng, i, pIR)
		s -= newE
		e += newE - newI
		i += newI - newR
		r += newR
		out.Incidence[d] = float64(newE)
		out.Infectious[d] = float64(i)
		if float64(i) > out.Infectious[out.PeakDay] {
			out.PeakDay = d
		}
	}
	out.Final = State{S: float64(s), E: float64(e), I: float64(i), R: float64(r)}
	return out, nil
}

// binomial draws from Binomial(n, p). For large n it uses a normal
// approximation; otherwise explicit Bernoulli summation.
func binomial(rng *rand.Rand, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n > 1000 {
		mean := float64(n) * p
		sd := math.Sqrt(mean * (1 - p))
		v := math.Round(mean + sd*rng.NormFloat64())
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int64(v)
	}
	var k int64
	for j := int64(0); j < n; j++ {
		if rng.Float64() < p {
			k++
		}
	}
	return k
}

// --- calibration workload ---

// CalibrationTarget is the "observed" incidence a calibration run fits.
type CalibrationTarget struct {
	Init      State     `json:"init"`
	Days      int       `json:"days"`
	Incidence []float64 `json:"incidence"`
}

// SyntheticTarget generates observations from known parameters with
// multiplicative lognormal noise — the paper's stand-in for surveillance
// data streams (§II-B2).
func SyntheticTarget(init State, truth Params, days int, noise float64, rng *rand.Rand) (*CalibrationTarget, error) {
	series, err := RunSEIR(init, truth, days, 4)
	if err != nil {
		return nil, err
	}
	obs := make([]float64, days)
	for d, v := range series.Incidence {
		obs[d] = v * math.Exp(noise*rng.NormFloat64())
	}
	return &CalibrationTarget{Init: init, Days: days, Incidence: obs}, nil
}

// Loss scores candidate parameters against the target: mean squared error
// of log1p incidence (log scaling keeps early and peak phases comparable).
func (t *CalibrationTarget) Loss(candidate Params) (float64, error) {
	series, err := RunSEIR(t.Init, candidate, t.Days, 4)
	if err != nil {
		return 0, err
	}
	var sum float64
	for d := range t.Incidence {
		diff := math.Log1p(series.Incidence[d]) - math.Log1p(t.Incidence[d])
		sum += diff * diff
	}
	return sum / float64(len(t.Incidence)), nil
}

// ParamsFromVector maps an optimizer point in [0,1]³ onto plausible SEIR
// rates: β ∈ [0.05, 1.5], σ ∈ [0.1, 1], γ ∈ [0.05, 1].
func ParamsFromVector(x []float64) (Params, error) {
	if len(x) != 3 {
		return Params{}, fmt.Errorf("epi: calibration vector needs 3 dims, got %d", len(x))
	}
	clamp := func(v float64) float64 { return math.Min(1, math.Max(0, v)) }
	return Params{
		Beta:  0.05 + 1.45*clamp(x[0]),
		Sigma: 0.10 + 0.90*clamp(x[1]),
		Gamma: 0.05 + 0.95*clamp(x[2]),
	}, nil
}

// Objective returns the worker task function for calibration work: payload
// {"x": [...]} in [0,1]³ → result {"y": loss}.
func (t *CalibrationTarget) Objective() func(payload string) (string, error) {
	return func(payload string) (string, error) {
		var p struct {
			X     []float64 `json:"x"`
			Delay float64   `json:"delay"`
		}
		if err := json.Unmarshal([]byte(payload), &p); err != nil {
			return "", fmt.Errorf("epi: bad payload: %w", err)
		}
		params, err := ParamsFromVector(p.X)
		if err != nil {
			return "", err
		}
		loss, err := t.Loss(params)
		if err != nil {
			return "", err
		}
		out, _ := json.Marshal(map[string]any{"y": loss, "x": p.X})
		return string(out), nil
	}
}
