// Forecast: ensemble forecasting, the pandemic workload of the paper's
// introduction (§I: "large ensemble forecasts and scenario modeling").
//
// The workflow calibrates a SEIR model against noisy observations, draws
// parameter sets from the best calibration results (a cheap posterior
// stand-in), runs a stochastic-replicate ensemble as OSPREY tasks, and
// scores the resulting quantile fan against a held-out realization with
// forecast-hub metrics (WIS, 95% coverage).
//
//	go run ./examples/forecast
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"osprey"
	"osprey/internal/ensemble"
	"osprey/internal/epi"
	"osprey/internal/objective"
	"osprey/internal/opt"
)

func main() {
	log.SetFlags(0)
	truth := epi.Params{Beta: 0.42, Sigma: 0.25, Gamma: 0.16}
	init := epi.State{S: 99990, I: 10}
	rng := rand.New(rand.NewSource(31))
	target, err := epi.SyntheticTarget(init, truth, 100, 0.05, rng)
	if err != nil {
		log.Fatal(err)
	}

	db, err := osprey.NewDB()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Stage 1: calibrate on work type 1.
	calPool, err := osprey.NewPool(db, osprey.PoolConfig{
		Name: "calib-pool", Workers: 8, BatchSize: 12, WorkType: 1,
	}, target.Objective(), nil)
	if err != nil {
		log.Fatal(err)
	}
	go calPool.Run(ctx)
	report, err := opt.RunAsync(ctx, db, opt.Config{
		ExpID: "forecast-calib", WorkType: 1,
		Samples: 200, Dim: 3, Lo: 0, Hi: 1,
		RetrainEvery: 25, Seed: 17,
		Delay:       objective.DelayConfig{TimeScale: 0},
		PollTimeout: 2 * time.Second,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Parameter draws: jittered copies of the calibrated optimum (a cheap
	// stand-in for posterior samples).
	best, err := epi.ParamsFromVector(report.BestX)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated over %d simulations: R0=%.2f (truth %.2f)\n",
		report.Completed, best.R0(), truth.R0())
	var draws []epi.Params
	for i := 0; i < 10; i++ {
		jitter := func(v float64) float64 { return v * (1 + 0.05*rng.NormFloat64()) }
		draws = append(draws, epi.Params{
			Beta: jitter(best.Beta), Sigma: jitter(best.Sigma), Gamma: jitter(best.Gamma),
		})
	}

	// Stage 2: ensemble forecast on work type 2 (a second pool — the
	// heterogeneous-pool pattern of §IV-D).
	ensPool, err := osprey.NewPool(db, osprey.PoolConfig{
		Name: "ensemble-pool", Workers: 8, BatchSize: 16, WorkType: 2,
	}, ensemble.Runner(), nil)
	if err != nil {
		log.Fatal(err)
	}
	go ensPool.Run(ctx)

	forecast, err := ensemble.Run(ctx, db, ensemble.Config{
		ExpID: "forecast", WorkType: 2, Members: 150, Horizon: 28,
		Init: init, ParamDraws: draws, Seed: 1000,
		PollTimeout: 30 * time.Second,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Score against a held-out realization of the true process.
	heldOut, err := epi.RunStochasticSEIR(init, truth, 28, rand.New(rand.NewSource(777)))
	if err != nil {
		log.Fatal(err)
	}
	wis, err := ensemble.WIS(forecast, heldOut.Incidence)
	if err != nil {
		log.Fatal(err)
	}
	cov, err := ensemble.Coverage(forecast, heldOut.Incidence, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	med := forecast.Median()
	fmt.Printf("28-day ensemble forecast from %d members x %d parameter draws\n",
		forecast.Members, len(draws))
	fmt.Printf("  median incidence day 7/14/28: %.0f / %.0f / %.0f\n", med[6], med[13], med[27])
	fmt.Printf("  WIS %.1f, 95%% coverage %.0f%%\n", wis, cov*100)
}
