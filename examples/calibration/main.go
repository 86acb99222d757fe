// Calibration: the epidemiologic workload OSPREY exists for (paper §I-II).
//
// A synthetic SEIR epidemic generates "observed" daily incidence; the
// asynchronous ME algorithm then calibrates (β, σ, γ) against those
// observations using GPR-reprioritized task execution on a worker pool.
// This is the paper's architecture applied to its motivating domain rather
// than the Ackley stand-in.
//
//	go run ./examples/calibration
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"osprey"
	"osprey/internal/epi"
	"osprey/internal/objective"
	"osprey/internal/opt"
)

func main() {
	log.SetFlags(0)

	// Ground truth epidemic: R0 ≈ 2.7 in a population of 100k.
	truth := epi.Params{Beta: 0.4, Sigma: 0.25, Gamma: 0.15}
	init := epi.State{S: 99990, I: 10}
	rng := rand.New(rand.NewSource(5))
	target, err := epi.SyntheticTarget(init, truth, 120, 0.05, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("truth: beta=%.2f sigma=%.2f gamma=%.2f (R0=%.2f)\n",
		truth.Beta, truth.Sigma, truth.Gamma, truth.R0())

	db, err := osprey.NewDB()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Worker pool executing the calibration loss (work type 2: a
	// simulation-intensive CPU task in the paper's terms).
	p, err := osprey.NewPool(db, osprey.PoolConfig{
		Name: "sim-pool", Workers: 8, BatchSize: 12, WorkType: 2,
	}, target.Objective(), nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	// Asynchronous GPR-steered calibration over the unit cube mapped onto
	// plausible SEIR rates.
	report, err := opt.RunAsync(ctx, db, opt.Config{
		ExpID: "seir-calibration", WorkType: 2,
		Samples: 250, Dim: 3, Lo: 0, Hi: 1,
		RetrainEvery: 25, Seed: 11,
		Delay:       objective.DelayConfig{TimeScale: 0}, // loss is already costly
		PollTimeout: 2 * time.Second,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	fitted, err := epi.ParamsFromVector(report.BestX)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated over %d simulations (%d reprioritization rounds)\n",
		report.Completed, report.ReprioRounds)
	fmt.Printf("fit:   beta=%.2f sigma=%.2f gamma=%.2f (R0=%.2f), loss %.4f\n",
		fitted.Beta, fitted.Sigma, fitted.Gamma, fitted.R0(), report.BestY)

	// Compare the fitted epidemic's peak with the truth's.
	fitSeries, _ := epi.RunSEIR(init, fitted, 120, 4)
	truthSeries, _ := epi.RunSEIR(init, truth, 120, 4)
	fmt.Printf("peak day: truth %d, fitted %d\n", truthSeries.PeakDay, fitSeries.PeakDay)
}
