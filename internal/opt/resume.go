package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"osprey/internal/core"
	"osprey/internal/objective"
	"osprey/internal/telemetry"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// CheckpointFrom captures resumable state mid-run. The async driver calls
// it through Config-independent snapshots; external callers can build one
// from a Report plus the pending points they know about.
func CheckpointFrom(cfg Config, trainX [][]float64, trainY []float64, pendingX [][]float64, report *Report) *Checkpoint {
	c := &Checkpoint{
		ExpID:    cfg.ExpID,
		WorkType: cfg.WorkType,
		TrainX:   trainX,
		TrainY:   trainY,
		PendingX: pendingX,
		Rounds:   report.ReprioRounds,
		BestY:    report.BestY,
		BestX:    report.BestX,
	}
	return c
}

// ResumeAsync continues an exploration from a checkpoint, possibly on a
// different resource (paper §II-B2c: "model exploration algorithms [can] be
// easily rerun or continued, either on the original set of computing
// resources or different ones"). The checkpoint's pending points are
// re-submitted as fresh tasks; its training history seeds the surrogate so
// the first reprioritization happens immediately rather than after
// RetrainEvery new completions.
func ResumeAsync(ctx context.Context, sess core.Session, cfg Config, ckpt *Checkpoint, rec *telemetry.Recorder) (*Report, error) {
	if ckpt == nil {
		return nil, fmt.Errorf("opt: nil checkpoint")
	}
	cfg.ExpID = ckpt.ExpID
	cfg.WorkType = ckpt.WorkType
	cfg.applyDefaults()

	start := time.Now()
	paperNow := func() float64 {
		if rec != nil {
			return rec.Now()
		}
		return time.Since(start).Seconds()
	}

	report := &Report{
		Algorithm: "async-gpr-resumed",
		BestY:     ckpt.BestY,
		BestX:     ckpt.BestX,
	}
	if report.BestX == nil {
		report.BestY = math.Inf(1)
	}
	trainX := append([][]float64(nil), ckpt.TrainX...)
	trainY := append([]float64(nil), ckpt.TrainY...)

	// Re-submit the pending points. Delays are re-drawn: the original draws
	// belong to tasks that died with the previous resource.
	rng := newSeededRand(cfg.Seed)
	payloads := make([]string, len(ckpt.PendingX))
	for i, x := range ckpt.PendingX {
		payloads[i] = objective.EncodePayload(objective.Payload{X: x, Delay: cfg.Delay.Sample(rng)})
	}
	batch, err := sess.SubmitBatch(ctx, cfg.ExpID, cfg.WorkType, payloads, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("opt: resubmit: %w", err)
	}
	pending := make(map[int64]*pendingTask, len(ckpt.PendingX))
	for i, id := range batch.IDs {
		pending[id] = &pendingTask{id: id, x: ckpt.PendingX[i]}
	}
	if len(pending) == 0 {
		report.Duration = paperNow()
		return report, nil
	}

	// Immediate reprioritization from the checkpointed history.
	round := ckpt.Rounds
	if len(trainX) >= 2 {
		round++
		if rec != nil {
			rec.RecordRound(telemetry.ReprioStart, "", 0, round)
		}
		ids := make([]int64, 0, len(pending))
		xs := make([][]float64, 0, len(pending))
		for id, task := range pending {
			ids = append(ids, id)
			xs = append(xs, task.x)
		}
		if prios, err := cfg.Trainer.Rank(trainX, trainY, xs); err == nil && len(prios) == len(ids) {
			sess.UpdatePriorities(ctx, ids, prios)
			report.ReprioRounds = round
		}
		if rec != nil {
			rec.RecordRound(telemetry.ReprioEnd, "", 0, round)
		}
	}

	// Continue exactly like RunAsync's main loop.
	sinceRetrain := 0
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		remaining := make([]int64, 0, len(pending))
		for id := range pending {
			remaining = append(remaining, id)
		}
		results, err := popResults(ctx, sess, remaining, cfg.RetrainEvery, cfg.PollTimeout)
		if err != nil {
			return report, err
		}
		for _, r := range results {
			task := pending[r.ID]
			delete(pending, r.ID)
			res, derr := objective.DecodeResult(r.Result)
			if derr != nil {
				continue
			}
			trainX = append(trainX, task.x)
			trainY = append(trainY, res.Y)
			report.Completed++
			report.Evals = append(report.Evals, Eval{T: paperNow(), Y: res.Y})
			if res.Y < report.BestY {
				report.BestY = res.Y
				report.BestX = task.x
			}
			sinceRetrain++
		}
		if sinceRetrain >= cfg.RetrainEvery && len(pending) > 0 && len(trainX) >= 2 {
			sinceRetrain = 0
			round++
			if rec != nil {
				rec.RecordRound(telemetry.ReprioStart, "", 0, round)
			}
			ids := make([]int64, 0, len(pending))
			xs := make([][]float64, 0, len(pending))
			for id, task := range pending {
				ids = append(ids, id)
				xs = append(xs, task.x)
			}
			prios, terr := cfg.Trainer.Rank(trainX, trainY, xs)
			if terr == nil && len(prios) == len(ids) {
				if _, uerr := sess.UpdatePriorities(ctx, ids, prios); uerr == nil {
					report.ReprioRounds = round
					if cfg.OnRound != nil {
						cfg.OnRound(round)
					}
				}
			}
			if rec != nil {
				rec.RecordRound(telemetry.ReprioEnd, "", 0, round)
			}
		}
	}
	report.Duration = paperNow()
	return report, nil
}
