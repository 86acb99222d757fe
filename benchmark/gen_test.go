package main

import (
	"reflect"
	"testing"
)

// The same seed must give the same inputs: payloads, priorities and the ids
// picked for reprioritisation.
func TestGeneratorIsDeterministic(t *testing.T) {
	draw := func(seed int64) ([]string, []int, []int) {
		g := newGen(seed, 3)
		var payloads []string
		var prios []int
		for i := 0; i < 100; i++ {
			payloads = append(payloads, g.payload())
			prios = append(prios, g.priority(1000))
		}
		picks := make([]int, 50)
		g.pick(20000, picks, map[int]bool{})
		return payloads, prios, picks
	}
	p1, r1, k1 := draw(7)
	p2, r2, k2 := draw(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(k1, k2) {
		t.Fatal("two generators with the same seed and stream disagree")
	}
	p3, _, _ := draw(8)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("seeds 7 and 8 generate the same payloads")
	}
	if a, b := newGen(7, 0).payload(), newGen(7, 1).payload(); a == b {
		t.Fatal("streams 0 and 1 of one seed generate the same payloads")
	}
	if n := len(p1[0]); n < 56 || n > 72 {
		t.Errorf("payload %q is %d bytes, want about 64", p1[0], n)
	}
	seen := map[int]bool{}
	for _, k := range k1 {
		if k < 0 || k >= 20000 || seen[k] {
			t.Fatalf("pick returned %d: out of range or repeated", k)
		}
		seen[k] = true
	}
}

func TestBatchesCarryTheirChecksums(t *testing.T) {
	a := newBatches(newGen(1, 0), 4, 10, 100)
	b := newBatches(newGen(1, 0), 4, 10, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different batches")
	}
	payloads, prios, sums := a.at(6) // wraps to batch 2
	if len(payloads) != 10 || len(prios) != 10 || &payloads[0] != &a.payloads[2][0] {
		t.Fatalf("at(6) did not return batch 2 of the ring")
	}
	for i, p := range payloads {
		if sums[i] != checksum(p) {
			t.Errorf("sum %d is %q, want the checksum %q of its payload", i, sums[i], checksum(p))
		}
		if prios[i] < 0 || prios[i] >= 100 {
			t.Errorf("priority %d out of range", prios[i])
		}
	}
}
