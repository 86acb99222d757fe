package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"osprey/internal/minisql"
	"osprey/internal/obs"
)

func openDurable(t *testing.T, dir string, opt OpenOptions) *DB {
	t.Helper()
	db, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

func TestDurableRestartPreservesState(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := openDurable(t, dir, OpenOptions{})
	var ids []int64
	for i := 0; i < 25; i++ {
		res, err := db.Submit(ctx, "exp", 1, fmt.Sprintf(`{"i": %d}`, i), WithPriority(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, res.ID)
	}
	// Drive some through the lifecycle so recovery covers pops and reports.
	tasks, err := db.QueryTasks(ctx, 1, 5, "pool")
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks.Tasks {
		if _, err := db.Report(ctx, task.ID, 1, `{"ok": true}`); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2 := openDurable(t, dir, OpenOptions{})
	defer db2.Close()
	for _, id := range ids {
		task, err := db2.GetTask(ctx, id)
		if err != nil {
			t.Fatalf("task %d lost across restart: %v", id, err)
		}
		if task.Status != StatusQueued && task.Status != StatusComplete {
			t.Fatalf("task %d status %v after restart", id, task.Status)
		}
	}
	counts, err := db2.Counts(ctx, "exp")
	if err != nil || counts[StatusComplete] != 5 {
		t.Fatalf("complete count after restart = %d (%v), want 5", counts[StatusComplete], err)
	}
	// The recovered node keeps accepting writes at the right log position.
	if _, err := db2.Submit(ctx, "exp", 1, "post-restart"); err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
}

// TestCheckpointReplayEquivalence churns a durable database through random
// operations with an aggressive checkpoint cadence, then verifies the
// recovered engine is byte-identical to the live one: recovery must land on
// the same state whether it comes from a checkpoint, a log replay, or any
// mix. Deterministic snapshot encoding makes the comparison exact.
func TestCheckpointReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := openDurable(t, dir, OpenOptions{CheckpointEvery: 7})
	rng := rand.New(rand.NewSource(42))
	var live []int64
	for i := 0; i < 300; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			res, err := db.Submit(ctx, "churn", 1, fmt.Sprintf(`{"n": %d}`, i), WithPriority(rng.Intn(20)))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, res.ID)
		case 4, 5:
			// Pops long-poll on an empty queue; bound them so churn proceeds.
			pc, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			tasks, err := db.QueryTasks(pc, 1, 1+rng.Intn(3), "p")
			cancel()
			if err == nil {
				for _, task := range tasks.Tasks {
					if rng.Intn(2) == 0 {
						if _, err := db.Report(ctx, task.ID, 1, `"done"`); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		case 6:
			// A set-based write: several ids — queued, popped or canceled by
			// now, one possibly twice — in one multi-row statement.
			if len(live) > 0 {
				ids, prios := make([]int64, 1+rng.Intn(8)), []int{rng.Intn(30)}
				for j := range ids {
					ids[j] = live[rng.Intn(len(live))]
				}
				if rng.Intn(2) == 0 {
					prios = make([]int, len(ids))
					for j := range prios {
						prios[j] = rng.Intn(30)
					}
				}
				if _, err := db.UpdatePriorities(ctx, ids, prios); err != nil {
					t.Fatal(err)
				}
			}
		case 7:
			if len(live) > 2 {
				id := live[rng.Intn(len(live))]
				if _, err := db.CancelTasks(ctx, []int64{id}); err != nil {
					t.Fatal(err)
				}
			}
		case 8:
			if _, err := db.RequeueRunning(ctx, "p"); err != nil {
				t.Fatal(err)
			}
		case 9:
			pc, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			_, _ = db.PopResults(pc, nil, 1+rng.Intn(4))
			cancel()
		}
	}
	var liveSnap bytes.Buffer
	if err := db.Snapshot(&liveSnap); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDurable(t, dir, OpenOptions{})
	defer db2.Close()
	var recSnap bytes.Buffer
	if err := db2.Snapshot(&recSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveSnap.Bytes(), recSnap.Bytes()) {
		t.Fatalf("recovered engine diverges from live engine (%d vs %d snapshot bytes)",
			liveSnap.Len(), recSnap.Len())
	}
}

// TestCrashRecovery proves the durability contract with a real SIGKILL: a
// helper process (re-exec of this test binary) opens the data dir with fsync
// on, submits a task, and prints an ACK marker once the write call returned.
// The parent kills it with SIGKILL — no deferred saves, no atexit — then
// recovers the directory cold and expects the acknowledged task.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("OSPREY_CRASH_HELPER") == "1" {
		crashHelper()
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashRecovery$", "-test.v")
	cmd.Env = append(os.Environ(), "OSPREY_CRASH_HELPER=1", "OSPREY_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the helper to report its write acknowledged, then SIGKILL it
	// mid-flight.
	ackCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		var seen strings.Builder
		for {
			n, err := out.Read(buf)
			seen.Write(buf[:n])
			if strings.Contains(seen.String(), "ACKED") {
				ackCh <- nil
				return
			}
			if err != nil {
				ackCh <- fmt.Errorf("helper exited before ack: %v (output %q)", err, seen.String())
				return
			}
		}
	}()
	select {
	case err := <-ackCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for helper ack")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	db := openDurable(t, dir, OpenOptions{Fsync: true})
	defer db.Close()
	ctx := context.Background()
	task, err := db.GetTask(ctx, 1)
	if err != nil {
		t.Fatalf("acknowledged task lost after kill -9: %v", err)
	}
	if task.Payload != `{"survives": true}` || task.Status != StatusQueued {
		t.Fatalf("recovered task = %+v", task)
	}
}

// crashHelper runs inside the re-exec'd child: submit one task with fsync on
// and advertise the acknowledgement, then idle until killed.
func crashHelper() {
	dir := os.Getenv("OSPREY_CRASH_DIR")
	db, err := Open(dir, OpenOptions{Fsync: true})
	if err != nil {
		fmt.Println("HELPER OPEN ERROR:", err)
		os.Exit(1)
	}
	if _, err := db.Submit(context.Background(), "crash", 1, `{"survives": true}`); err != nil {
		fmt.Println("HELPER SUBMIT ERROR:", err)
		os.Exit(1)
	}
	fmt.Println("ACKED")
	os.Stdout.Sync()
	time.Sleep(time.Minute) // hold the process open for the SIGKILL
}

// TestCheckpointReplayEquivalenceConcurrent is the equivalence check with the
// churn coming from several sessions at once and a checkpoint every 200
// entries, so snapshots capture their cut while commits are landing: under
// -race it is the proof that the capture shares nothing mutable with the
// commits it no longer blocks, and in any mode that each checkpoint is the
// state at the index it recorded. The store writes checkpoints on its own
// goroutine, so a session runs 400 ops and then keeps churning, up to 4 000,
// until three have been written beside it.
func TestCheckpointReplayEquivalenceConcurrent(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := openDurable(t, dir, OpenOptions{CheckpointEvery: 200})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			pool := fmt.Sprintf("p%d", w)
			var mine []int64
			for i := 0; i < 400 || (i < 4000 && db.Store().Stats().Checkpoints < 3); i++ {
				var err error
				switch rng.Intn(6) {
				case 0, 1:
					payloads := make([]string, 1+rng.Intn(5))
					for j := range payloads {
						payloads[j] = fmt.Sprintf(`{"w": %d, "n": %d}`, w, i)
					}
					var res BatchRes
					if res, err = db.SubmitBatch(ctx, "churn", 1, payloads, []int{rng.Intn(20)}, nil); err == nil {
						mine = append(mine, res.IDs...)
					}
				case 2, 3:
					pc, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
					tasks, perr := db.QueryTasks(pc, 1, 1+rng.Intn(3), pool)
					cancel()
					for _, task := range tasks.Tasks {
						if perr == nil && err == nil && rng.Intn(3) > 0 {
							_, err = db.Report(ctx, task.ID, 1, `"done"`)
						}
					}
				case 4:
					if len(mine) > 0 {
						ids := make([]int64, 1+rng.Intn(6))
						for j := range ids {
							ids[j] = mine[rng.Intn(len(mine))]
						}
						_, err = db.UpdatePriorities(ctx, ids, []int{rng.Intn(30)})
					}
				case 5:
					_, err = db.RequeueRunning(ctx, pool)
				}
				if err != nil {
					t.Errorf("session %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := db.Store().Stats().Checkpoints; n < 3 {
		t.Fatalf("%d checkpoints written beside the churn, want at least 3", n)
	}
	var liveSnap bytes.Buffer
	if err := db.Snapshot(&liveSnap); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDurable(t, dir, OpenOptions{})
	defer db2.Close()
	var recSnap bytes.Buffer
	if err := db2.Snapshot(&recSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveSnap.Bytes(), recSnap.Bytes()) {
		t.Fatalf("recovered engine diverges from live engine (%d vs %d snapshot bytes)",
			liveSnap.Len(), recSnap.Len())
	}
}

// TestCheckpointHoldsLockForCapture drives a durable, fsyncing database
// through automatic checkpoints the way durable-cycle does and reads the two
// histograms an operator would: of the time its checkpoints took, the engine
// lock — every commit's lock — was held for at most an eighth.
func TestCheckpointHoldsLockForCapture(t *testing.T) {
	ctx := context.Background()
	db := openDurable(t, t.TempDir(), OpenOptions{Fsync: true, CheckpointEvery: 40})
	defer db.Close()
	payloads := make([]string, 50)
	for i := range payloads {
		payloads[i] = `{"x": [0.25, 0.5, 0.75], "seed": 12345}`
	}
	for i := 0; i < 200; i++ {
		if _, err := db.SubmitBatch(ctx, "exp", 1, payloads, []int{i % 7}, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Store().Stats().Checkpoints < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d automatic checkpoints after 200 entries at one per 40", db.Store().Stats().Checkpoints)
		}
		time.Sleep(5 * time.Millisecond)
	}
	flat := obs.Flatten(db.Metrics().Gather())
	lock, lockN := flat["osprey_engine_snapshot_lock_seconds_sum"], flat["osprey_engine_snapshot_lock_seconds_count"]
	ckpt, ckptN := flat["osprey_checkpoint_seconds_sum"], flat["osprey_checkpoint_seconds_count"]
	t.Logf("%v checkpoints took %.1f ms; %v snapshots held the engine lock %.1f ms", ckptN, 1e3*ckpt, lockN, 1e3*lock)
	if ckptN < 3 || lockN < ckptN {
		t.Fatalf("%v checkpoint and %v snapshot-lock observations, want at least 3 and as many", ckptN, lockN)
	}
	if lock > ckpt/8 {
		t.Fatalf("engine lock held %.1f ms of %.1f ms of checkpoints, want at most 1/8", 1e3*lock, 1e3*ckpt)
	}
	var status strings.Builder
	db.WriteDurability(&status)
	if s := status.String(); !strings.Contains(s, "last_took=") || strings.Contains(s, "last_took=0s") ||
		!strings.Contains(s, "last_snapshot_lock=") || strings.Contains(s, "last_snapshot_lock=0s") {
		t.Fatalf("/statusz durability block does not report the last checkpoint:\n%s", s)
	}
}

// gobEraCheckpointHex opens a checkpoint of this schema as builds before the
// record format wrote it: one encoding/gob message.
const gobEraCheckpointHex = "" +
	"2b7f03010106736e6170444201ff80000102010756657273696f6e0104000106" +
	"5461626c657301ff9000000022ff8f020101135b5d6d696e6973716c2e736e61"

// TestOpenRefusesGobEraCheckpoint: a data dir whose only checkpoint predates
// the record format does not open when its log cannot replay what the
// checkpoint held — no log at all, or one that starts after it — and the
// error names the checkpoint's format instead of only the log's gap.
func TestOpenRefusesGobEraCheckpoint(t *testing.T) {
	gobEra, err := hex.DecodeString(gobEraCheckpointHex)
	if err != nil {
		t.Fatal(err)
	}
	for _, logFrom := range []uint64{0, 6} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.snap", 5)), gobEra, 0o644); err != nil {
			t.Fatal(err)
		}
		if logFrom > 0 {
			log, err := minisql.OpenDiskLog(filepath.Join(dir, "wal"), 0, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(minisql.LogEntry{Index: logFrom, Stmts: []minisql.Stmt{{
				SQL: "DELETE FROM eq_out_q WHERE task_id = ?", Args: []minisql.Value{minisql.Int64(1)},
			}}}); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
		}
		db, err := Open(dir, OpenOptions{})
		if err == nil {
			db.Close()
			t.Fatalf("log from %d: opened a data dir whose only checkpoint is gob-era", logFrom)
		}
		if msg := err.Error(); !strings.Contains(msg, "unrecognised checkpoint format") || !strings.Contains(msg, "gob") {
			t.Fatalf("log from %d: Open: %v; want an error naming the checkpoint format", logFrom, err)
		}
	}
}
