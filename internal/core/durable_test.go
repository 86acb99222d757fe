package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
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
