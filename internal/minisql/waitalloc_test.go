//go:build !race

// The race detector's sync.Pool drops a share of puts at random, so the
// allocation pins build without it.

package minisql

import (
	"testing"
	"time"
)

// TestWaitDurableAllocatesNothing: a WaitDurable that blocks on the fsync in
// flight waits on a pooled timer. What a round allocates is the durable
// signal's replacement wake channel (the sync loop's idle signal makes none:
// nobody waits on it here); the wait itself allocates nothing (a fresh timer
// and a deferred Stop in the wait loop cost four more).
func TestWaitDurableAllocatesNothing(t *testing.T) {
	slow := syncHookFS{FS: OSFS, beforeSync: func(string) error {
		time.Sleep(time.Millisecond) // the waiter is parked before the fsync lands
		return nil
	}}
	d, err := OpenDiskLogFS(slow, t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const runs = 50
	recs := make([]Record, runs+1) // AllocsPerRun warms up with one more run
	for i := range recs {
		idx := uint64(i + 1)
		recs[i] = Record{Index: idx, Data: EncodeRecord(nil, testEntry(idx))}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r := recs[next]
		next++
		if err := d.AppendRecords(r); err != nil {
			t.Fatal(err)
		}
		if err := d.WaitDurable(r.Index, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("append and blocking WaitDurable: %v allocs, want at most 2 (the wake channels)", allocs)
	}
}
