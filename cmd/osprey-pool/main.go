// Command osprey-pool runs a worker pool (paper §IV-D) against a remote
// EMEWS service, evaluating one of the built-in objectives or the SEIR
// calibration loss.
//
//	osprey-pool -addr 127.0.0.1:7654 -name pool1 -workers 33 -batch 50 \
//	            -threshold 1 -worktype 1 -objective ackley
//
// -addr may name any member of a replicated cluster: the membership is
// discovered from it, pops and reports go to the leader, and the pool rides
// out leader failover.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"osprey/internal/objective"
	"osprey/internal/pool"
	"osprey/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("osprey-pool: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:7654", "EMEWS service address (any cluster member)")
		name      = flag.String("name", "pool-1", "pool name")
		workers   = flag.Int("workers", 33, "concurrent workers")
		batch     = flag.Int("batch", 0, "query batch size (default: workers)")
		threshold = flag.Int("threshold", 1, "refetch threshold")
		workType  = flag.Int("worktype", 1, "work type to consume")
		objName   = flag.String("objective", "ackley", "objective: ackley, sphere, rastrigin, rosenbrock, levy")
		timeScale = flag.Float64("timescale", 1.0, "wall-seconds per paper-second for task delays")
	)
	flag.Parse()

	fn, err := objective.ByName(*objName)
	if err != nil {
		log.Fatal(err)
	}
	client, err := service.DialCluster(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	p, err := pool.New(client, pool.Config{
		Name: *name, Workers: *workers, BatchSize: *batch,
		Threshold: *threshold, WorkType: *workType,
	}, objective.Evaluator(fn, objective.DefaultDelay(*timeScale)), nil)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("draining (executed %d tasks so far)", p.Executed())
		cancel()
	}()
	log.Printf("pool %q serving work type %d with %d workers (batch %d, threshold %d)",
		*name, *workType, *workers, *batch, *threshold)
	p.Run(ctx)
	log.Printf("stopped after executing %d tasks (%d failed)", p.Executed(), p.Failed())
}
