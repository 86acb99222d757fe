package workflow

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func validSpec() *Spec {
	return &Spec{
		Name: "shared-ackley",
		Seed: 9,
		ME: MESpec{
			Algorithm: "random", Samples: 40, Dim: 2,
			Lo: -5, Hi: 5, WorkType: 1,
		},
		Pools: []PoolSpec{
			{Name: "p1", Workers: 8, WorkType: 1, Objective: "ackley"},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"no pools", func(s *Spec) { s.Pools = nil }, "at least one pool"},
		{"anon pool", func(s *Spec) { s.Pools[0].Name = "" }, "without a name"},
		{"dup pool", func(s *Spec) { s.Pools = append(s.Pools, s.Pools[0]) }, "duplicate pool"},
		{"no workers", func(s *Spec) { s.Pools[0].Workers = 0 }, "workers > 0"},
		{"bad objective", func(s *Spec) { s.Pools[0].Objective = "nope" }, "unknown function"},
		{"bad algorithm", func(s *Spec) { s.ME.Algorithm = "magic" }, "unknown algorithm"},
		{"no samples", func(s *Spec) { s.ME.Samples = 0 }, "positive samples"},
		{"orphan work type", func(s *Spec) { s.ME.WorkType = 9 }, "no pool consumes"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := validSpec()
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Pools) != 1 || got.ME.Samples != 40 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := Load([]byte("{")); err == nil {
		t.Fatal("bad JSON must error")
	}
	if _, err := Load([]byte(`{"name": "x"}`)); err == nil {
		t.Fatal("invalid spec must fail Load")
	}
}

func TestRunProducesDeterministicMetrics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s := validSpec()
	r1, err := Run(ctx, s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Completed != 40 {
		t.Fatalf("completed = %d", r1.Completed)
	}
	r2, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed → identical sample set → identical best objective.
	if r1.BestY != r2.BestY {
		t.Fatalf("best differs across runs: %v vs %v", r1.BestY, r2.BestY)
	}
}

func TestRunAsyncAlgorithm(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s := validSpec()
	s.ME.Algorithm = "async-gpr"
	s.ME.RetrainEvery = 10
	r, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds < 1 {
		t.Fatalf("async run had %d reprio rounds", r.Rounds)
	}
}

func TestPublishCheckPasses(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s := validSpec()
	result, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Publish(s, result, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Check(ctx); err != nil {
		t.Fatalf("reproducible workflow flagged as regression: %v", err)
	}
}

func TestCheckDetectsRegression(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s := validSpec()
	result, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Publish(s, result, 0.01)
	// Tamper with the published metric: the re-run must not match.
	b.Result.BestY *= 3
	if err := b.Check(ctx); err == nil {
		t.Fatal("regression not detected")
	}
	// Tamper with completion count.
	b2, _ := Publish(s, result, 0.01)
	b2.Result.Completed++
	if err := b2.Check(ctx); err == nil {
		t.Fatal("completion regression not detected")
	}
}

func TestLoadBaselineValidation(t *testing.T) {
	if _, err := LoadBaseline([]byte("[")); err == nil {
		t.Fatal("bad JSON must error")
	}
	if _, err := LoadBaseline([]byte(`{"spec": {"name": ""}}`)); err == nil {
		t.Fatal("invalid embedded spec must error")
	}
	if _, err := Publish(&Spec{}, &Result{}, 0.1); err == nil {
		t.Fatal("publishing an invalid spec must error")
	}
}

// Marshal serializes the spec for sharing.
func (s *Spec) Marshal() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }
