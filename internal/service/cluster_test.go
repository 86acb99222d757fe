package service

import (
	"fmt"
	"sync"
	"testing"
)

// TestAutoDedupKeys: generated keys keep the <base>-<seq> form, sequence
// numbers continue across calls and stay unique across concurrent batches,
// and a 50-key batch, the slice included, costs at most three allocations.
func TestAutoDedupKeys(t *testing.T) {
	cc := &ClusterClient{dedupBase: "cc-0011223344556677"}
	var one [1]string
	cc.autoDedupKeys(one[:])
	batch := make([]string, 12)
	cc.autoDedupKeys(batch)
	for i, k := range append(one[:], batch...) {
		if want := fmt.Sprintf("%s-%d", cc.dedupBase, i+1); k != want {
			t.Fatalf("key %d = %q, want %q", i, k, want)
		}
	}

	const workers, batches, size = 4, 25, 50
	keys := make([][]string, workers*batches)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				ks := make([]string, size)
				cc.autoDedupKeys(ks)
				keys[w*batches+b] = ks
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, ks := range keys {
		for _, k := range ks {
			if seen[k] {
				t.Fatalf("key %q generated twice", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != workers*batches*size {
		t.Fatalf("%d distinct keys, want %d", len(seen), workers*batches*size)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		cc.autoDedupKeys(make([]string, 50))
	}); allocs > 3 {
		t.Fatalf("a 50-key batch: %v allocs, want at most 3", allocs)
	}
}
