package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
	"osprey/internal/obs"
	"osprey/internal/service"
	"osprey/internal/watch"
)

// gathered is the flattened, summed state of every node's metrics registry:
// counters and histogram _sum/_count add across nodes, which is what a
// before/after delta needs. (Gauges and quantiles do not add; none is read.)
type gathered map[string]float64

func gatherAll(regs []*obs.Registry) gathered {
	out := gathered{}
	for _, reg := range regs {
		for k, v := range obs.Flatten(reg.Gather()) {
			out[k] += v
		}
	}
	return out
}

// addDelta adds what the nodes counted between before and after to d, which
// accumulates the windows of a run's epochs.
func (d gathered) addDelta(before, after gathered) {
	for k, v := range after {
		d[k] += v - before[k]
	}
}

// hist is the observation count and summed value a histogram gained inside
// the run's windows. labels is the rendered label set, e.g. `{op="report"}`,
// or "".
func (d gathered) hist(name, labels string) (count, sum float64) {
	return d[name+"_count"+labels], d[name+"_sum"+labels]
}

// histMeanUS is the mean of a duration histogram inside the run's windows,
// in µs.
func (d gathered) histMeanUS(name, labels string) float64 {
	n, sum := d.hist(name, labels)
	if n == 0 {
		return 0
	}
	return sum / n * 1e6
}

func opLabel(op string) string { return fmt.Sprintf(`{op=%q}`, op) }

// heapMB is the live heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// The layer probes below run after the measured window of a traced run. Each
// calls one layer's public functions in isolation, on inputs shaped like the
// run's own, so a change to that layer shows here before it is diluted in an
// end-to-end number.

// codecRoundTripNS times the service's binary codec on its representative
// submit request/response pair.
func codecRoundTripNS() (float64, error) {
	const n = 200_000
	cb := service.NewCodecBench()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := cb.RoundTripV2(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / n, nil
}

// hubCommitNS times watch.Hub.Commit per transition, with two live
// subscribers, over the transitions `tasks` lifecycles of the cycle shape
// produce: one commit of a batch's queued events, pops in pool-sized commits,
// one commit per report.
func hubCommitNS(tasks int) float64 {
	hub := watch.NewHub(0, nil)
	var subs []*watch.Sub
	var wg sync.WaitGroup
	for _, q := range []watch.Query{{WorkType: loadWorkType}, {All: true}} {
		// Room for every commit: a subscriber that overflowed would be
		// dropped by the hub and the rest of the probe would measure less.
		sub, _, _, _ := hub.Subscribe(q, 3*tasks)
		subs = append(subs, sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.C {
			}
		}()
	}
	batch := make([]watch.Transition, 0, batchSize)
	transitions := 0
	idx := uint64(0)
	commit := func(status string, first, n int) {
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, watch.Transition{TaskID: int64(first + i), WorkType: loadWorkType, Status: status})
		}
		idx++
		hub.Commit(idx, batch)
		transitions += n
	}
	t0 := time.Now()
	for first := 1; first <= tasks; first += batchSize {
		commit(watch.StatusQueued, first, batchSize)
		for off := 0; off < batchSize; off += poolBatch {
			commit(watch.StatusRunning, first+off, min(poolBatch, batchSize-off))
		}
		for off := 0; off < batchSize; off++ {
			commit(watch.StatusComplete, first+off, 1)
		}
	}
	elapsed := time.Since(t0)
	for _, sub := range subs {
		sub.Close()
	}
	wg.Wait()
	return float64(elapsed) / float64(transitions)
}

// snapshotRestoreMS times a full engine snapshot of db and a restore of it
// into a fresh database.
func snapshotRestoreMS(db *core.DB) (snapMS, restoreMS float64, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := db.Snapshot(&buf); err != nil {
		return 0, 0, fmt.Errorf("snapshot: %w", err)
	}
	snapMS = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	restored, err := core.RestoreDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, 0, fmt.Errorf("restore: %w", err)
	}
	restoreMS = float64(time.Since(t0)) / 1e6
	restored.Close()
	return snapMS, restoreMS, nil
}

// logProbe replays the durable run's own committed entries — the tail after
// its newest checkpoint — through the two minisql paths every follower and
// every restart takes: Engine.ApplyEntry onto an engine restored from that
// checkpoint, and DiskLog.Append (no fsync) into a fresh log under scratch.
func logProbe(store *minisql.Store, scratch string) (applyUS, appendUS, bytesPerEntry float64, err error) {
	const maxEntries = 20_000
	path, idx, ok := store.CheckpointFile()
	if !ok {
		return 0, 0, 0, nil // the run was too short to checkpoint
	}
	entries, err := store.EntriesAfter(idx)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(entries) > maxEntries {
		entries = entries[:maxEntries]
	}
	if len(entries) == 0 {
		return 0, 0, 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	eng := minisql.NewEngine()
	err = eng.Restore(f)
	f.Close()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("restoring %s: %w", path, err)
	}
	t0 := time.Now()
	for _, e := range entries {
		if err := eng.ApplyEntry(e); err != nil {
			return 0, 0, 0, fmt.Errorf("ApplyEntry %d: %w", e.Index, err)
		}
	}
	applyUS = float64(time.Since(t0)) / 1e3 / float64(len(entries))

	dir, err := os.MkdirTemp(scratch, "logprobe-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	dl, err := minisql.OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer dl.Close()
	t0 = time.Now()
	for _, e := range entries {
		if err := dl.Append(e); err != nil {
			return 0, 0, 0, fmt.Errorf("DiskLog.Append %d: %w", e.Index, err)
		}
	}
	appendUS = float64(time.Since(t0)) / 1e3 / float64(len(entries))
	bytesPerEntry = float64(dl.Stats().DiskBytes) / float64(len(entries))
	return applyUS, appendUS, bytesPerEntry, nil
}
