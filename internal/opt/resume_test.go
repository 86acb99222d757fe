package opt

import (
	"context"
	"math"
	"testing"
	"time"

	"osprey/internal/objective"
)

func TestResumeAsyncCompletesRemainingWork(t *testing.T) {
	// Simulate a crashed exploration: half the sample set was evaluated on
	// the "old resource", the rest is pending in a checkpoint. Resume on a
	// fresh database + pool and verify the whole set completes.
	cfg := fastCfg(0)
	cfg.RetrainEvery = 10

	// "History" from the previous resource.
	trainX := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {-1, 2}, {4, -4}}
	trainY := make([]float64, len(trainX))
	bestY := math.Inf(1)
	var bestX []float64
	for i, x := range trainX {
		trainY[i] = objective.Ackley(x)
		if trainY[i] < bestY {
			bestY, bestX = trainY[i], x
		}
	}
	pendingX := [][]float64{{0.5, 0.5}, {-2, 1}, {3, -3}, {1.5, -0.5}, {-4, 4}}
	ckpt := &Checkpoint{
		ExpID: "resumed", WorkType: 1,
		TrainX: trainX, TrainY: trainY, PendingX: pendingX,
		BestY: bestY, BestX: bestX, Rounds: 2,
	}

	db := newDB(t)
	stop := startPool(t, db, cfg, 4)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	report, err := ResumeAsync(ctx, db, cfg, ckpt, nil)
	if err != nil {
		t.Fatalf("ResumeAsync: %v", err)
	}
	if report.Completed != len(pendingX) {
		t.Fatalf("completed = %d, want %d", report.Completed, len(pendingX))
	}
	// The checkpointed best can only improve.
	if report.BestY > bestY {
		t.Fatalf("resumed best %v worse than checkpointed %v", report.BestY, bestY)
	}
	// The immediate reprioritization continues the round numbering.
	if report.ReprioRounds < 3 {
		t.Fatalf("rounds = %d, want continuation past checkpointed 2", report.ReprioRounds)
	}
	if report.Algorithm != "async-gpr-resumed" {
		t.Fatalf("algorithm = %s", report.Algorithm)
	}
}

func TestResumeAsyncEmptyPending(t *testing.T) {
	db := newDB(t)
	cfg := fastCfg(0)
	ckpt := &Checkpoint{ExpID: "done", WorkType: 1, BestY: 1.5, BestX: []float64{1, 2}}
	ctx := context.Background()
	report, err := ResumeAsync(ctx, db, cfg, ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 0 || report.BestY != 1.5 {
		t.Fatalf("report = %+v", report)
	}
}

func TestResumeAsyncNilCheckpoint(t *testing.T) {
	db := newDB(t)
	if _, err := ResumeAsync(context.Background(), db, fastCfg(0), nil, nil); err == nil {
		t.Fatal("nil checkpoint must error")
	}
}

func TestCheckpointFrom(t *testing.T) {
	cfg := Config{ExpID: "e", WorkType: 4}
	report := &Report{BestY: 0.5, BestX: []float64{1}, ReprioRounds: 7}
	ckpt := CheckpointFrom(cfg, [][]float64{{1}}, []float64{0.5}, [][]float64{{2}}, report)
	if ckpt.ExpID != "e" || ckpt.WorkType != 4 || ckpt.Rounds != 7 ||
		len(ckpt.TrainX) != 1 || len(ckpt.PendingX) != 1 || ckpt.BestY != 0.5 {
		t.Fatalf("checkpoint = %+v", ckpt)
	}
}

func TestCrashResumeRoundTrip(t *testing.T) {
	// Full cycle: run async partially, cancel (crash), checkpoint from
	// what we know, resume elsewhere, and verify total completions cover
	// the full sample set.
	cfg := fastCfg(40)
	cfg.RetrainEvery = 10

	db1 := newDB(t)
	stop1 := startPool(t, db1, cfg, 4)
	// Cancel after ~half the expected runtime.
	ctx1, cancel1 := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel1()
	partial, err := RunAsync(ctx1, db1, cfg, nil)
	stop1()
	if err == nil {
		t.Skip("run finished before the simulated crash; nothing to resume")
	}
	if partial == nil || partial.Completed == 0 {
		t.Skip("crash hit before any completions; timing too tight on this host")
	}

	// Rebuild state: we know the evaluated points only through the partial
	// report, so reconstruct pending as a fresh complement-sized sample (a
	// resumed exploration continues from recorded train data; exact pending
	// identity is preserved by the checkpoint in real flows).
	remaining := cfg.Samples - partial.Completed
	pendingX := objective.SamplePoints(newSeededRand(99), remaining, cfg.Dim, cfg.Lo, cfg.Hi)
	trainX := make([][]float64, 0, partial.Completed)
	trainY := make([]float64, 0, partial.Completed)
	for _, e := range partial.Evals {
		// x unavailable from Eval; synthesize consistent training points.
		x := objective.SamplePoints(newSeededRand(int64(len(trainX))), 1, cfg.Dim, cfg.Lo, cfg.Hi)[0]
		trainX = append(trainX, x)
		trainY = append(trainY, e.Y)
	}
	ckpt := CheckpointFrom(cfg, trainX, trainY, pendingX, partial)

	db2 := newDB(t)
	stop2 := startPool(t, db2, cfg, 4)
	defer stop2()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	resumed, err := ResumeAsync(ctx2, db2, cfg, ckpt, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if partial.Completed+resumed.Completed != cfg.Samples {
		t.Fatalf("total completions %d + %d != %d",
			partial.Completed, resumed.Completed, cfg.Samples)
	}
}
