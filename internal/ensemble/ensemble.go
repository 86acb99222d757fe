// Package ensemble produces probabilistic epidemic forecasts from model
// ensembles — the "large ensemble forecasts and scenario modeling" the
// paper's introduction describes as the pandemic workload (§I). Replicate
// simulations run as OSPREY tasks through worker pools; trajectories are
// aggregated into forecast-hub-style quantile bands and scored with the
// weighted interval score (WIS) used by the COVID-19 Forecast Hub the paper
// cites ([5], Ray et al.).
package ensemble

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"osprey/internal/core"
	"osprey/internal/epi"
)

// seededRNG builds a deterministic generator for one replicate.
func seededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// HubQuantiles are the 23 quantile levels of the COVID-19 Forecast Hub.
var HubQuantiles = []float64{
	0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
	0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.975, 0.99,
}

// Task is the payload for one replicate simulation: stochastic SEIR with
// the given parameters and seed over Horizon days.
type Task struct {
	Params  epi.Params `json:"params"`
	Init    epi.State  `json:"init"`
	Horizon int        `json:"horizon"`
	Seed    int64      `json:"seed"`
}

// Trajectory is one replicate's daily incidence.
type Trajectory struct {
	Incidence []float64 `json:"incidence"`
	Seed      int64     `json:"seed"`
}

// Runner executes replicate tasks (the worker-pool TaskFunc).
func Runner() func(payload string) (string, error) {
	return func(payload string) (string, error) {
		var task Task
		if err := json.Unmarshal([]byte(payload), &task); err != nil {
			return "", fmt.Errorf("ensemble: bad task: %w", err)
		}
		series, err := epi.RunStochasticSEIR(task.Init, task.Params, task.Horizon, seededRNG(task.Seed))
		if err != nil {
			return "", err
		}
		out, _ := json.Marshal(Trajectory{Incidence: series.Incidence, Seed: task.Seed})
		return string(out), nil
	}
}

// Forecast is a quantile fan: Quantiles[q][d] is the level-q forecast for
// day d.
type Forecast struct {
	Levels    []float64            `json:"levels"`
	Quantiles map[string][]float64 `json:"quantiles"` // level formatted %.3f
	Horizon   int                  `json:"horizon"`
	Members   int                  `json:"members"`
}

// level keys are fixed-precision so JSON round trips are exact.
func levelKey(q float64) string { return fmt.Sprintf("%.3f", q) }

// At returns the level-q forecast series.
func (f *Forecast) At(q float64) ([]float64, error) {
	s, ok := f.Quantiles[levelKey(q)]
	if !ok {
		return nil, fmt.Errorf("ensemble: no quantile %v in forecast", q)
	}
	return s, nil
}

// Median returns the 0.5 forecast.
func (f *Forecast) Median() []float64 {
	s, _ := f.At(0.5)
	return s
}

// Aggregate builds the quantile fan from replicate trajectories.
func Aggregate(trajectories []Trajectory, levels []float64) (*Forecast, error) {
	if len(trajectories) == 0 {
		return nil, errors.New("ensemble: no trajectories")
	}
	if len(levels) == 0 {
		levels = HubQuantiles
	}
	horizon := len(trajectories[0].Incidence)
	for i, tr := range trajectories {
		if len(tr.Incidence) != horizon {
			return nil, fmt.Errorf("ensemble: trajectory %d has %d days, want %d",
				i, len(tr.Incidence), horizon)
		}
	}
	f := &Forecast{
		Levels:    append([]float64(nil), levels...),
		Quantiles: make(map[string][]float64, len(levels)),
		Horizon:   horizon,
		Members:   len(trajectories),
	}
	day := make([]float64, len(trajectories))
	fan := make(map[string][]float64, len(levels))
	for _, q := range levels {
		fan[levelKey(q)] = make([]float64, horizon)
	}
	for d := 0; d < horizon; d++ {
		for i, tr := range trajectories {
			day[i] = tr.Incidence[d]
		}
		sort.Float64s(day)
		for _, q := range levels {
			fan[levelKey(q)][d] = quantileSorted(day, q)
		}
	}
	f.Quantiles = fan
	return f, nil
}

// quantileSorted interpolates the q-th quantile of ascending xs.
func quantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// --- submission through OSPREY ---

// Config parameterizes an ensemble run through the task database.
type Config struct {
	ExpID    string
	WorkType int
	Members  int
	Horizon  int
	Init     epi.State
	Params   epi.Params
	// ParamDraws, if non-empty, overrides Params per member (posterior
	// predictive ensembles from calibration output).
	ParamDraws []epi.Params
	Seed       int64
	// PollTimeout bounds each result poll.
	PollTimeout time.Duration
}

// Run submits Members replicate tasks and aggregates their trajectories.
// A worker pool running Runner() must be attached to the same work type.
func Run(ctx context.Context, sess core.Session, cfg Config, levels []float64) (*Forecast, error) {
	if cfg.Members <= 0 {
		cfg.Members = 100
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 28
	}
	if cfg.ExpID == "" {
		cfg.ExpID = "ensemble"
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 5 * time.Second
	}
	ids := make([]int64, 0, cfg.Members)
	for i := 0; i < cfg.Members; i++ {
		params := cfg.Params
		if len(cfg.ParamDraws) > 0 {
			params = cfg.ParamDraws[i%len(cfg.ParamDraws)]
		}
		payload, _ := json.Marshal(Task{
			Params: params, Init: cfg.Init, Horizon: cfg.Horizon,
			Seed: cfg.Seed + int64(i),
		})
		res, err := sess.Submit(ctx, cfg.ExpID, cfg.WorkType, string(payload))
		if err != nil {
			return nil, fmt.Errorf("ensemble: submit member %d: %w", i, err)
		}
		ids = append(ids, res.ID)
	}
	trajectories := make([]Trajectory, 0, cfg.Members)
	outstanding := ids
	for len(trajectories) < cfg.Members {
		pctx, cancel := context.WithTimeout(ctx, cfg.PollTimeout)
		res, err := sess.PopResults(pctx, outstanding, cfg.Members)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("ensemble: collecting (%d/%d done): %w",
				len(trajectories), cfg.Members, err)
		}
		for _, r := range res.Results {
			var tr Trajectory
			if err := json.Unmarshal([]byte(r.Result), &tr); err != nil {
				return nil, fmt.Errorf("ensemble: bad trajectory from task %d: %w", r.ID, err)
			}
			trajectories = append(trajectories, tr)
		}
	}
	return Aggregate(trajectories, levels)
}

// --- scoring (forecast-hub metrics) ---

// IntervalScore computes the central (1-alpha) interval score for one
// observation: width + penalties for misses, each scaled by 2/alpha.
func IntervalScore(lower, upper, observed, alpha float64) float64 {
	score := upper - lower
	if observed < lower {
		score += 2 / alpha * (lower - observed)
	}
	if observed > upper {
		score += 2 / alpha * (observed - upper)
	}
	return score
}

// WIS computes the weighted interval score of the forecast against
// observations, averaged over the horizon. Lower is better. The forecast
// must contain the symmetric quantile pairs implied by its levels.
func WIS(f *Forecast, observed []float64) (float64, error) {
	if len(observed) < f.Horizon {
		return 0, fmt.Errorf("ensemble: %d observations for horizon %d", len(observed), f.Horizon)
	}
	median := f.Median()
	if median == nil {
		return 0, errors.New("ensemble: forecast lacks the median")
	}
	// Collect symmetric (alpha, lower, upper) interval pairs.
	type interval struct {
		alpha        float64
		lower, upper []float64
	}
	var intervals []interval
	for _, q := range f.Levels {
		if q >= 0.5 {
			continue
		}
		upperQ := 1 - q
		lo, err1 := f.At(q)
		up, err2 := f.At(upperQ)
		if err1 != nil || err2 != nil {
			continue
		}
		intervals = append(intervals, interval{alpha: 2 * q, lower: lo, upper: up})
	}
	if len(intervals) == 0 {
		return 0, errors.New("ensemble: no symmetric intervals in forecast")
	}
	k := float64(len(intervals))
	var total float64
	for d := 0; d < f.Horizon; d++ {
		obs := observed[d]
		score := math.Abs(obs-median[d]) / 2
		for _, iv := range intervals {
			score += iv.alpha / 2 * IntervalScore(iv.lower[d], iv.upper[d], obs, iv.alpha)
		}
		total += score / (k + 0.5)
	}
	return total / float64(f.Horizon), nil
}

// Coverage returns the fraction of observations inside the central
// (1-alpha) band.
func Coverage(f *Forecast, observed []float64, alpha float64) (float64, error) {
	lo, err := f.At(alpha / 2)
	if err != nil {
		return 0, err
	}
	up, err := f.At(1 - alpha/2)
	if err != nil {
		return 0, err
	}
	if len(observed) < f.Horizon {
		return 0, fmt.Errorf("ensemble: %d observations for horizon %d", len(observed), f.Horizon)
	}
	hits := 0
	for d := 0; d < f.Horizon; d++ {
		if observed[d] >= lo[d] && observed[d] <= up[d] {
			hits++
		}
	}
	return float64(hits) / float64(f.Horizon), nil
}
