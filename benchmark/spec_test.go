package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json is the driver's copy of spec.go and run.sh; it must say the
// same thing and stay inside the driver's limits.
func TestSpecMatchesJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %v\n spec %v", doc.Workloads, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n spec %v", doc.PerLayer, perLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("per-layer %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the driver's limits",
			len(workloads), len(endToEnd), len(perLayer))
	}
}
