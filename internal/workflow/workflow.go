// Package workflow implements the Shared Development Environment pieces of
// paper §II-B3: a portable, declarative workflow specification ("the
// standardized OSPREY workflow structure") that wires worker pools and a
// model-exploration algorithm together so that "works for me" also means
// "works for you", plus model validation and publishing with correctness
// regression detection against recorded baselines (the ResearchOps/DevOps
// practice the paper cites).
package workflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"osprey/internal/core"
	"osprey/internal/objective"
	"osprey/internal/opt"
	"osprey/internal/pool"
	"osprey/internal/telemetry"
)

// PoolSpec declares one worker pool of the workflow.
type PoolSpec struct {
	Name      string `json:"name"`
	Workers   int    `json:"workers"`
	BatchSize int    `json:"batch_size,omitempty"`
	Threshold int    `json:"threshold,omitempty"`
	WorkType  int    `json:"work_type"`
	// Objective names the task function: one of the built-in objectives.
	Objective string `json:"objective"`
}

// MESpec declares the model-exploration algorithm.
type MESpec struct {
	// Algorithm is "async-gpr", "batch-sync-gpr", or "random".
	Algorithm    string  `json:"algorithm"`
	Samples      int     `json:"samples"`
	Dim          int     `json:"dim"`
	Lo           float64 `json:"lo,omitempty"`
	Hi           float64 `json:"hi,omitempty"`
	RetrainEvery int     `json:"retrain_every,omitempty"`
	WorkType     int     `json:"work_type"`
}

// Spec is a complete, serializable workflow description.
type Spec struct {
	Name      string     `json:"name"`
	Seed      int64      `json:"seed"`
	TimeScale float64    `json:"time_scale,omitempty"`
	DelayMu   float64    `json:"delay_mu,omitempty"`
	DelaySig  float64    `json:"delay_sigma,omitempty"`
	Pools     []PoolSpec `json:"pools"`
	ME        MESpec     `json:"me"`
}

// Validate checks the spec for the mistakes that make shared workflows
// fail on other systems.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("workflow: name is required")
	}
	if len(s.Pools) == 0 {
		return fmt.Errorf("workflow %q: at least one pool is required", s.Name)
	}
	seen := map[string]bool{}
	typed := map[int]bool{}
	for _, p := range s.Pools {
		if p.Name == "" {
			return fmt.Errorf("workflow %q: pool without a name", s.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("workflow %q: duplicate pool %q", s.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Workers <= 0 {
			return fmt.Errorf("workflow %q: pool %q needs workers > 0", s.Name, p.Name)
		}
		if _, err := objective.ByName(p.Objective); err != nil {
			return fmt.Errorf("workflow %q: pool %q: %w", s.Name, p.Name, err)
		}
		typed[p.WorkType] = true
	}
	switch s.ME.Algorithm {
	case "async-gpr", "batch-sync-gpr", "random":
	default:
		return fmt.Errorf("workflow %q: unknown algorithm %q", s.Name, s.ME.Algorithm)
	}
	if s.ME.Samples <= 0 || s.ME.Dim <= 0 {
		return fmt.Errorf("workflow %q: ME needs positive samples and dim", s.Name)
	}
	if !typed[s.ME.WorkType] {
		return fmt.Errorf("workflow %q: no pool consumes ME work type %d", s.Name, s.ME.WorkType)
	}
	return nil
}

// Load parses and validates a shared spec.
func Load(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workflow: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Result captures the metrics a published workflow is validated on.
type Result struct {
	Name      string  `json:"name"`
	Completed int     `json:"completed"`
	BestY     float64 `json:"best_y"`
	Rounds    int     `json:"rounds"`
	Duration  float64 `json:"duration_paper_s"`
}

// Run materializes and executes the workflow against a fresh in-process
// task database, returning its validation metrics.
func Run(ctx context.Context, spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	db, err := core.NewDB()
	if err != nil {
		return nil, err
	}
	defer db.Close()

	ts := spec.TimeScale
	if ts <= 0 {
		ts = 0.001
	}
	delay := objective.DelayConfig{Mu: spec.DelayMu, Sigma: spec.DelaySig, TimeScale: ts}
	rec := telemetry.NewRecorder(ts)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, ps := range spec.Pools {
		fn, err := objective.ByName(ps.Objective)
		if err != nil {
			return nil, err
		}
		p, err := pool.New(db, pool.Config{
			Name: ps.Name, Workers: ps.Workers, BatchSize: ps.BatchSize,
			Threshold: ps.Threshold, WorkType: ps.WorkType,
		}, objective.Evaluator(fn, delay), rec)
		if err != nil {
			return nil, err
		}
		go p.Run(runCtx)
	}

	cfg := opt.Config{
		ExpID: spec.Name, WorkType: spec.ME.WorkType,
		Samples: spec.ME.Samples, Dim: spec.ME.Dim,
		Lo: spec.ME.Lo, Hi: spec.ME.Hi,
		RetrainEvery: spec.ME.RetrainEvery, Seed: spec.Seed,
		Delay: delay, PollTimeout: 5 * time.Second,
	}
	var report *opt.Report
	switch spec.ME.Algorithm {
	case "async-gpr":
		report, err = opt.RunAsync(ctx, db, cfg, rec)
	case "batch-sync-gpr":
		report, err = opt.RunBatchSync(ctx, db, cfg, rec)
	case "random":
		report, err = opt.RunRandom(ctx, db, cfg, rec)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:      spec.Name,
		Completed: report.Completed,
		BestY:     report.BestY,
		Rounds:    report.ReprioRounds,
		Duration:  report.Duration,
	}, nil
}

// Baseline is a published validation record for a workflow: the spec plus
// the metrics the publisher observed. Consumers re-run the spec and compare
// with Check (the paper's "capability to detect correctness regressions").
type Baseline struct {
	Spec   Spec   `json:"spec"`
	Result Result `json:"result"`
	// Tolerance is the allowed relative deviation in BestY (runtime metrics
	// are machine-dependent and informational only). Exact completion and
	// round counts must match: they are seed-determined.
	Tolerance float64 `json:"tolerance"`
}

// Publish records the current run as the baseline.
func Publish(spec *Spec, result *Result, tolerance float64) (*Baseline, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tolerance <= 0 {
		tolerance = 0.05
	}
	return &Baseline{Spec: *spec, Result: *result, Tolerance: tolerance}, nil
}

// Marshal serializes the baseline for publication.
func (b *Baseline) Marshal() ([]byte, error) { return json.MarshalIndent(b, "", "  ") }

// LoadBaseline parses a published baseline.
func LoadBaseline(data []byte) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("workflow: baseline: %w", err)
	}
	if err := b.Spec.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// Check re-runs the baseline's spec and reports regressions.
func (b *Baseline) Check(ctx context.Context) error {
	got, err := Run(ctx, &b.Spec)
	if err != nil {
		return fmt.Errorf("workflow %q: validation run failed: %w", b.Spec.Name, err)
	}
	if got.Completed != b.Result.Completed {
		return fmt.Errorf("workflow %q: completed %d tasks, baseline %d",
			b.Spec.Name, got.Completed, b.Result.Completed)
	}
	want := b.Result.BestY
	if diff := math.Abs(got.BestY - want); diff > b.Tolerance*math.Max(math.Abs(want), 1) {
		return fmt.Errorf("workflow %q: best objective %g deviates from baseline %g beyond tolerance %v",
			b.Spec.Name, got.BestY, want, b.Tolerance)
	}
	return nil
}
