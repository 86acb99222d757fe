// Command osprey-submit is a small CLI against a running EMEWS service: it
// submits tasks, inspects queue state, and fetches results — the
// command-line counterpart of the paper's Python/R task API (Listing 1).
//
//	osprey-submit -addr HOST:PORT submit -payload '{"x": [1, 2]}' -priority 5
//	osprey-submit -addr HOST:PORT counts
//	osprey-submit -addr HOST:PORT result -task 42 -timeout 30s
//	osprey-submit -addr HOST:PORT cancel -task 42
//	osprey-submit -addr HOST:PORT requeue -pool crashed-pool
//	osprey-submit -addr HOST:PORT watch -worktype 7 -n 1 -timeout 10s
//
// -addr may name any member of a replicated cluster: the membership is
// discovered from it, and ops only the leader executes go to the leader.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"osprey/internal/core"
	"osprey/internal/service"
	"osprey/internal/watch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("osprey-submit: ")
	addr := flag.String("addr", "127.0.0.1:7654", "EMEWS service address (any cluster member)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: osprey-submit [-addr HOST:PORT] {submit|counts|result|cancel|requeue} [flags]")
	}

	client, err := service.DialCluster(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	switch args[0] {
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		exp := fs.String("exp", "cli", "experiment id")
		workType := fs.Int("worktype", 1, "work type")
		payload := fs.String("payload", "", "task payload (JSON)")
		priority := fs.Int("priority", 0, "priority")
		fs.Parse(args[1:])
		if *payload == "" {
			log.Fatal("submit: -payload is required")
		}
		res, err := client.Submit(context.Background(), *exp, *workType, *payload, core.WithPriority(*priority))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.ID)
	case "counts":
		fs := flag.NewFlagSet("counts", flag.ExitOnError)
		exp := fs.String("exp", "", "experiment id (empty = all)")
		fs.Parse(args[1:])
		counts, err := client.Counts(context.Background(), *exp)
		if err != nil {
			log.Fatal(err)
		}
		for _, st := range []core.Status{core.StatusQueued, core.StatusRunning, core.StatusComplete, core.StatusCanceled} {
			fmt.Printf("%-10s %d\n", st, counts[st])
		}
	case "result":
		fs := flag.NewFlagSet("result", flag.ExitOnError)
		task := fs.Int64("task", 0, "task id")
		timeout := fs.Duration("timeout", 10*time.Second, "wait timeout")
		fs.Parse(args[1:])
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		res, err := client.QueryResult(ctx, *task)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Result)
	case "cancel":
		fs := flag.NewFlagSet("cancel", flag.ExitOnError)
		task := fs.Int64("task", 0, "task id")
		fs.Parse(args[1:])
		res, err := client.CancelTasks(context.Background(), []int64{*task})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("canceled %d\n", res.Count)
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		workType := fs.Int("worktype", 0, "work type to watch (0 = all work types)")
		n := fs.Int("n", 0, "exit after this many transitions (0 = until killed)")
		timeout := fs.Duration("timeout", 0, "stop watching after this long (0 = no limit)")
		fs.Parse(args[1:])
		q := watch.Query{All: *workType == 0, WorkType: *workType}
		st, err := client.Watch(context.Background(), q, 256)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		if *timeout > 0 {
			// The context only guards the subscribe handshake; bound the
			// stream itself by closing it, which ends Events() cleanly.
			t := time.AfterFunc(*timeout, func() { st.Close() })
			defer t.Stop()
		}
		printed := 0
		for batch := range st.Events() {
			for _, ev := range batch {
				if ev.Resync {
					fmt.Printf("%d resync worktype=%d depth=%d\n", ev.Token, ev.WorkType, ev.Depth)
					continue
				}
				fmt.Printf("%d task=%d worktype=%d %s\n", ev.Token, ev.TaskID, ev.WorkType, ev.Status)
				printed++
				if *n > 0 && printed >= *n {
					return
				}
			}
		}
		if err := st.Err(); err != nil {
			log.Fatal(err)
		}
		if *n > 0 && printed < *n {
			log.Fatalf("watch: stream ended after %d of %d transitions", printed, *n)
		}
	case "requeue":
		fs := flag.NewFlagSet("requeue", flag.ExitOnError)
		poolName := fs.String("pool", "", "crashed pool name")
		fs.Parse(args[1:])
		if *poolName == "" {
			log.Fatal("requeue: -pool is required")
		}
		res, err := client.RequeueRunning(context.Background(), *poolName)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("requeued %d\n", res.Count)
	default:
		log.Printf("unknown command %q", args[0])
		os.Exit(2)
	}
}
