// Assimilation: continuously-running data assimilation (paper §II-B2).
//
// A synthetic surveillance feed with reporting lag, weekend effects,
// backfill, and missing days streams into the ingest store. At three
// successive report dates the workflow replays what was knowable then
// ("data vintages"), curates the stream (imputation, de-weekday,
// smoothing), recalibrates the SEIR model against the curated series on a
// worker pool, and shows how the estimate of R0 tightens toward truth as
// data accumulate — with every curation step captured in the provenance
// log.
//
//	go run ./examples/assimilation
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"time"

	"osprey"
	"osprey/internal/datastream"
	"osprey/internal/epi"
	"osprey/internal/opt"
)

func main() {
	log.SetFlags(0)

	// Ground truth epidemic and its distorted surveillance feed.
	truth := epi.Params{Beta: 0.45, Sigma: 0.25, Gamma: 0.18}
	init := epi.State{S: 99990, I: 10}
	horizon := 150
	truthSeries, err := epi.RunSEIR(init, truth, horizon, 4)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	feed := datastream.SyntheticFeed(truthSeries.Incidence, datastream.FeedConfig{
		ReportLag: 2, BackfillDays: 3, WeekdayEffect: 0.65,
		MissingProb: 0.04, Noise: 0.06,
	}, rng)
	store := datastream.NewStore()
	store.Ingest("cases", feed)
	fmt.Printf("truth: R0=%.2f; ingested %d observations from the synthetic feed\n",
		truth.R0(), store.Len())

	db, err := osprey.NewDB()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Assimilate at three vintages: day 60, day 100, day 150.
	for _, vintage := range []int{60, 100, 150} {
		curated, err := datastream.NewPipeline(store, "cases").Curate(vintage, 0, vintage-3, 7)
		if err != nil {
			log.Fatal(err)
		}
		target := &epi.CalibrationTarget{Init: init, Days: len(curated.Values), Incidence: curated.Values}

		// Fresh pool per vintage (work types keep the queues separate).
		workType := vintage
		p, err := osprey.NewPool(db, osprey.PoolConfig{
			Name: fmt.Sprintf("sim-pool-%d", vintage), Workers: 8, BatchSize: 12, WorkType: workType,
		}, target.Objective(), nil)
		if err != nil {
			log.Fatal(err)
		}
		poolCtx, poolCancel := context.WithCancel(ctx)
		go p.Run(poolCtx)

		report, err := opt.RunAsync(ctx, db, opt.Config{
			ExpID: fmt.Sprintf("assim-%d", vintage), WorkType: workType,
			Samples: 150, Dim: 3, Lo: 0, Hi: 1,
			RetrainEvery: 25, Seed: int64(vintage),
			PollTimeout: 2 * time.Second,
		}, nil)
		poolCancel()
		if err != nil {
			log.Fatal(err)
		}
		fitted, err := epi.ParamsFromVector(report.BestX)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("vintage day %3d: %3d curated days (%d imputed), fitted R0=%.2f (truth %.2f), loss %.4f\n",
			vintage, len(curated.Values), curated.MissingCount(), fitted.R0(), truth.R0(), report.BestY)
	}

	// Show a slice of the provenance trail.
	prov := store.Provenance()
	fmt.Printf("\nprovenance log (%d entries), last steps:\n", len(prov))
	for _, e := range prov[max(0, len(prov)-4):] {
		detail, _ := json.Marshal(e.Detail)
		fmt.Printf("  %-16s %s\n", e.Op, detail)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
