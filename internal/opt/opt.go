// Package opt implements the model-exploration (ME) algorithms of the
// paper's evaluation (§VI): an asynchronous optimizer that submits a full
// sample set, then repeatedly retrains a Gaussian-process surrogate on
// completed evaluations and reprioritizes the still-queued tasks; a
// batch-synchronous baseline that waits for whole batches (the workflow
// style the paper argues asynchrony improves upon); and a random-order
// control. The GPR retraining can run locally or be dispatched to a remote
// resource through funcX with the model shipped as a ProxyStore proxy,
// exactly as in the paper's Theta/Midway2 configurations.
package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"osprey/internal/core"
	"osprey/internal/gpr"
	"osprey/internal/objective"
	"osprey/internal/telemetry"
)

// Config parameterizes a model-exploration run.
type Config struct {
	ExpID    string
	WorkType int
	// Samples and Dim define the initial sample set (750 4-d points in §VI).
	Samples int
	Dim     int
	// Lo and Hi bound the sample domain (Ackley's standard ±32.768).
	Lo, Hi float64
	// RetrainEvery triggers reprioritization after this many new completions
	// (50 in the paper).
	RetrainEvery int
	// Seed drives sampling and delay draws.
	Seed int64
	// Delay is the lognormal task-duration configuration.
	Delay objective.DelayConfig
	// Trainer ranks pending points; nil uses a local GPR trainer.
	Trainer Trainer
	// PollTimeout bounds each result poll (default 2 s wall).
	PollTimeout time.Duration
	// OnRound, if set, is called after each completed reprioritization
	// round. The paper's Figure 4 run uses it to start additional worker
	// pools after the 2nd and 4th reprioritizations.
	OnRound func(round int)
}

func (c *Config) applyDefaults() {
	if c.ExpID == "" {
		c.ExpID = "exp"
	}
	if c.Samples <= 0 {
		c.Samples = 750
	}
	if c.Dim <= 0 {
		c.Dim = 4
	}
	if c.Lo == 0 && c.Hi == 0 {
		c.Lo, c.Hi = -32.768, 32.768
	}
	if c.RetrainEvery <= 0 {
		c.RetrainEvery = 50
	}
	if c.Trainer == nil {
		c.Trainer = LocalTrainer{}
	}
	if c.PollTimeout <= 0 {
		c.PollTimeout = 2 * time.Second
	}
}

// Trainer ranks pending sample points given the completed evaluations.
// Implementations return a priority for each pending point: higher values
// pop from the queue sooner.
type Trainer interface {
	Rank(trainX [][]float64, trainY []float64, pending [][]float64) ([]int, error)
}

// LocalTrainer fits the GPR in-process.
type LocalTrainer struct{}

// Rank implements Trainer: lower predicted objective → higher priority,
// matching the paper's "increasing the priority of those more likely to find
// an optimal result according to the GPR".
func (LocalTrainer) Rank(trainX [][]float64, trainY []float64, pending [][]float64) ([]int, error) {
	gp, err := FitAdaptive(trainX, trainY, 0)
	if err != nil {
		return nil, err
	}
	preds, err := gp.PredictBatch(pending)
	if err != nil {
		return nil, err
	}
	return RankFromPredictions(preds), nil
}

// FitAdaptive fits the reprioritization GPR with a hyperparameter search
// whose breadth shrinks as the training set grows, so per-round training
// cost stays within the few-second envelope the paper's Figure 4 shows even
// though exact GP inference is O(n³) per candidate. warmLS, when positive,
// centers the length-scale grid on the previous round's choice.
func FitAdaptive(trainX [][]float64, trainY []float64, warmLS float64) (*gpr.GP, error) {
	n := len(trainX)
	var lengthScales, signalVars []float64
	switch {
	case warmLS > 0:
		lengthScales = []float64{warmLS / 2, warmLS, warmLS * 2}
		signalVars = []float64{20}
	case n <= 150:
		lengthScales = []float64{0.5, 2, 8, 24}
		signalVars = []float64{5, 20, 80}
	default:
		lengthScales = []float64{2, 8, 24}
		signalVars = []float64{20}
	}
	return gpr.FitGrid(trainX, trainY, lengthScales, signalVars, 1e-4)
}

// RankFromPredictions converts predicted objective values into priorities
// 1..n where the lowest prediction receives the highest priority, the
// paper's 1..700 reprioritization trajectories.
func RankFromPredictions(preds []float64) []int {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return preds[idx[a]] > preds[idx[b]] })
	prios := make([]int, len(preds))
	for rank, i := range idx {
		prios[i] = rank + 1 // 1..n, best point gets n
	}
	return prios
}

// Eval is one completed objective evaluation.
type Eval struct {
	T float64 `json:"t"` // completion time, paper-seconds
	Y float64 `json:"y"`
}

// Report summarizes one ME run.
type Report struct {
	Algorithm    string  `json:"algorithm"`
	Completed    int     `json:"completed"`
	BestY        float64 `json:"best_y"`
	BestX        []float64
	Duration     float64 `json:"duration"` // paper-seconds
	ReprioRounds int     `json:"reprio_rounds"`
	// Evals, ordered by completion, give the best-so-far trajectory.
	Evals []Eval `json:"evals"`
}

type pendingTask struct {
	id int64
	x  []float64
}

// popResults is one bounded result poll: up to max results of ids, waiting at
// most timeout. Nothing yet is (nil, nil) — the caller's loop re-checks ctx
// and polls again.
func popResults(ctx context.Context, sess core.Session, ids []int64, max int, timeout time.Duration) ([]core.TaskResult, error) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, err := sess.PopResults(pctx, ids, max)
	if errors.Is(err, core.ErrTimeout) {
		return nil, nil
	}
	return res.Results, err
}

// RunAsync executes the paper's §VI asynchronous workflow against sess:
// submit all samples, then for every RetrainEvery completions retrain the
// surrogate and batch-update the priorities of the incomplete tasks.
// rec may be nil.
func RunAsync(ctx context.Context, sess core.Session, cfg Config, rec *telemetry.Recorder) (*Report, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	points := objective.SamplePoints(rng, cfg.Samples, cfg.Dim, cfg.Lo, cfg.Hi)

	start := time.Now()
	paperNow := func() float64 {
		if rec != nil {
			return rec.Now()
		}
		return time.Since(start).Seconds()
	}

	// Batch submission: one transaction / round trip for the whole sample
	// set, so pool 1 sees work almost immediately (as in the paper, where
	// the Figure 4 clock starts with the first tasks already queued).
	payloads := make([]string, len(points))
	for i, x := range points {
		payloads[i] = objective.EncodePayload(objective.Payload{X: x, Delay: cfg.Delay.Sample(rng)})
	}
	batch, err := sess.SubmitBatch(ctx, cfg.ExpID, cfg.WorkType, payloads, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("opt: submit: %w", err)
	}
	pending := make(map[int64]*pendingTask, cfg.Samples)
	for i, id := range batch.IDs {
		pending[id] = &pendingTask{id: id, x: points[i]}
	}

	report := &Report{Algorithm: "async-gpr", BestY: math.Inf(1)}
	var trainX [][]float64
	var trainY []float64
	sinceRetrain := 0
	round := 0

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
			return report, fmt.Errorf("opt: pop results: %w", err)
		}
		for _, r := range results {
			task := pending[r.ID]
			delete(pending, r.ID)
			res, derr := objective.DecodeResult(r.Result)
			if derr != nil {
				continue // failed evaluation; skip it but count completion
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
			pendingIDs := make([]int64, 0, len(pending))
			pendingX := make([][]float64, 0, len(pending))
			for id, task := range pending {
				pendingIDs = append(pendingIDs, id)
				pendingX = append(pendingX, task.x)
			}
			prios, terr := cfg.Trainer.Rank(trainX, trainY, pendingX)
			if terr == nil && len(prios) == len(pendingIDs) {
				if _, uerr := sess.UpdatePriorities(ctx, pendingIDs, prios); uerr != nil {
					terr = uerr
				}
			}
			if rec != nil {
				rec.RecordRound(telemetry.ReprioEnd, "", 0, round)
			}
			if terr != nil {
				// A failed retrain round is not fatal: the workflow simply
				// continues with the previous priorities.
				continue
			}
			report.ReprioRounds = round
			if cfg.OnRound != nil {
				cfg.OnRound(round)
			}
		}
	}
	report.Duration = paperNow()
	return report, nil
}

// RunBatchSync executes the batch-synchronous baseline: tasks are submitted
// RetrainEvery at a time and the algorithm waits for the whole batch before
// training and choosing the next batch from the remaining samples by
// predicted value. Stragglers in each batch idle the workers — the cost the
// asynchronous API avoids (§II-B1d).
func RunBatchSync(ctx context.Context, sess core.Session, cfg Config, rec *telemetry.Recorder) (*Report, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	points := objective.SamplePoints(rng, cfg.Samples, cfg.Dim, cfg.Lo, cfg.Hi)

	start := time.Now()
	paperNow := func() float64 {
		if rec != nil {
			return rec.Now()
		}
		return time.Since(start).Seconds()
	}

	report := &Report{Algorithm: "batch-sync-gpr", BestY: math.Inf(1)}
	var trainX [][]float64
	var trainY []float64
	remaining := points
	round := 0

	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		n := cfg.RetrainEvery
		if n > len(remaining) {
			n = len(remaining)
		}
		batch := remaining[:n]
		remaining = remaining[n:]

		payloads := make([]string, len(batch))
		for i, x := range batch {
			payloads[i] = objective.EncodePayload(objective.Payload{X: x, Delay: cfg.Delay.Sample(rng)})
		}
		submitted, err := sess.SubmitBatch(ctx, cfg.ExpID, cfg.WorkType, payloads, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("opt: submit: %w", err)
		}
		idToX := make(map[int64][]float64, n)
		for i, id := range submitted.IDs {
			idToX[id] = batch[i]
		}
		// Synchronous barrier: wait for every task in the batch.
		outstanding := append([]int64(nil), submitted.IDs...)
		for len(outstanding) > 0 {
			if err := ctx.Err(); err != nil {
				return report, err
			}
			results, err := popResults(ctx, sess, outstanding, len(outstanding), cfg.PollTimeout)
			if err != nil {
				return report, err
			}
			done := make(map[int64]bool, len(results))
			for _, r := range results {
				done[r.ID] = true
				res, derr := objective.DecodeResult(r.Result)
				if derr != nil {
					continue
				}
				trainX = append(trainX, idToX[r.ID])
				trainY = append(trainY, res.Y)
				report.Completed++
				report.Evals = append(report.Evals, Eval{T: paperNow(), Y: res.Y})
				if res.Y < report.BestY {
					report.BestY = res.Y
					report.BestX = idToX[r.ID]
				}
			}
			keep := outstanding[:0]
			for _, id := range outstanding {
				if !done[id] {
					keep = append(keep, id)
				}
			}
			outstanding = keep
		}
		// Rank the remaining candidates; process the most promising next.
		if len(remaining) > cfg.RetrainEvery && len(trainX) >= 2 {
			round++
			if rec != nil {
				rec.RecordRound(telemetry.ReprioStart, "", 0, round)
			}
			prios, err := cfg.Trainer.Rank(trainX, trainY, remaining)
			if rec != nil {
				rec.RecordRound(telemetry.ReprioEnd, "", 0, round)
			}
			if err == nil {
				sort.SliceStable(remaining, func(a, b int) bool { return prios[a] > prios[b] })
				report.ReprioRounds = round
			}
		}
	}
	report.Duration = paperNow()
	return report, nil
}

// RunRandom executes the control: all samples submitted with uniform
// priority and no reprioritization.
func RunRandom(ctx context.Context, sess core.Session, cfg Config, rec *telemetry.Recorder) (*Report, error) {
	cfg.Trainer = noopTrainer{}
	cfg.applyDefaults()
	cfg.RetrainEvery = cfg.Samples + 1 // never retrain
	r, err := RunAsync(ctx, sess, cfg, rec)
	if r != nil {
		r.Algorithm = "random"
	}
	return r, err
}

type noopTrainer struct{}

func (noopTrainer) Rank(_ [][]float64, _ []float64, pending [][]float64) ([]int, error) {
	return make([]int, len(pending)), nil
}
