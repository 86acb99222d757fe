package core

import (
	"bytes"
	"math/rand"
	"testing"

	"osprey/internal/minisql"
)

// updatePrioritiesLoop is the per-id reference UpdatePriorities was before it
// became set-based: two single-row UPDATEs per id in one transaction. The
// set-based call must leave the engine in exactly the state this leaves it.
func updatePrioritiesLoop(db *DB, ids []int64, priorities []int) (int, error) {
	updated := 0
	_, err := db.Engine().TxLogged(func(tx *minisql.Tx) error {
		for i, id := range ids {
			p := priorities[0]
			if len(priorities) > 1 {
				p = priorities[i]
			}
			res, err := tx.Run(db.stmts[prioOutQUpd], minisql.Int64(int64(p)), minisql.Int64(id))
			if err != nil {
				return err
			}
			if res.RowsAffected > 0 {
				if _, err := tx.Run(db.stmts[prioTasksUpd], minisql.Int64(int64(p)), minisql.Int64(id)); err != nil {
					return err
				}
				updated++
			}
		}
		return nil
	})
	return updated, err
}

// captureLog installs a commit hook that numbers and keeps every entry the
// engine commits; the caller may drain the slice between commits. The hook
// borrows its statements, so it keeps each entry as the log does: encoded,
// and decoded back into memory of its own.
func captureLog(eng *minisql.Engine) *[]minisql.LogEntry {
	log := new([]minisql.LogEntry)
	idx := eng.LastLogged()
	eng.SetCommitHook(func(stmts []minisql.Stmt) (uint64, error) {
		entry, _, err := minisql.DecodeRecord(minisql.EncodeRecord(nil, minisql.LogEntry{Index: idx + 1, Stmts: stmts}))
		if err != nil {
			return 0, err
		}
		idx++
		*log = append(*log, entry)
		return idx, nil
	})
	return log
}

func engineBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Engine().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func replayAll(t *testing.T, db *DB, entries []minisql.LogEntry) {
	t.Helper()
	for i, e := range entries {
		e.Index = uint64(i + 1)
		if err := db.Engine().ApplyEntry(e); err != nil {
			t.Fatalf("replaying entry %d: %v", i+1, err)
		}
	}
}

// TestUpdatePrioritiesMatchesLoop: over random rounds at a few thousand
// queued tasks — ids that are queued, already popped, unknown, duplicated
// within a call; one shared priority or one per id — the set-based
// UpdatePriorities and the per-id loop report the same count and leave
// byte-identical engines; a call of n > 1 ids commits one entry of at most
// two statements; and both logs — one Stmt carrying many argument rows, and
// the old one row per Stmt — replay to that same state.
func TestUpdatePrioritiesMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	set, loop := newTestDB(t), newTestDB(t)
	setLog := captureLog(set.Engine())

	const tasks = 3000
	payloads, prios := make([]string, tasks), make([]int, tasks)
	for i := range prios {
		prios[i] = rng.Intn(50)
	}
	ids, err := idsOf(set.SubmitBatch(bg, "exp", 1, payloads, prios, nil))
	if err != nil {
		t.Fatal(err)
	}
	// loop follows set through everything but the reprioritisations: those
	// it runs itself, the old way. setStream and loopStream are the two
	// histories, replayed onto fresh databases at the end.
	var setStream, loopStream []minisql.LogEntry
	follow := func() {
		t.Helper()
		for _, e := range *setLog {
			if err := loop.Engine().ApplyEntry(e); err != nil {
				t.Fatal(err)
			}
			setStream, loopStream = append(setStream, e), append(loopStream, e)
		}
		*setLog = (*setLog)[:0]
	}
	follow()
	loopLog := captureLog(loop.Engine())

	for round := 0; round < 60; round++ {
		if round%3 == 0 { // the queue drains under the ME's feet
			if _, err := set.QueryTasks(within(t, waitMax), 1, 1+rng.Intn(40), "p"); err != nil {
				t.Fatal(err)
			}
			follow()
		}
		n := 1 + rng.Intn(400)
		if round%10 == 9 {
			n = 1
		}
		pick := make([]int64, n)
		for i := range pick {
			switch k := rng.Intn(20); {
			case k == 0:
				pick[i] = int64(tasks + 1 + rng.Intn(100)) // never existed
			case k == 1 && i > 0:
				pick[i] = pick[rng.Intn(i)] // twice in one call
			default:
				pick[i] = ids[rng.Intn(len(ids))] // queued, or popped by now
			}
		}
		newPrios := []int{rng.Intn(100)}
		if rng.Intn(2) == 0 {
			newPrios = make([]int, n)
			for i := range newPrios {
				newPrios[i] = rng.Intn(100)
			}
		}

		got, err := set.UpdatePriorities(bg, pick, newPrios)
		if err != nil {
			t.Fatalf("round %d: UpdatePriorities: %v", round, err)
		}
		want, err := updatePrioritiesLoop(loop, pick, newPrios)
		if err != nil {
			t.Fatalf("round %d: reference loop: %v", round, err)
		}
		if got.Count != want {
			t.Fatalf("round %d: %d ids updated, the loop updated %d", round, got.Count, want)
		}
		if !bytes.Equal(engineBytes(t, set), engineBytes(t, loop)) {
			t.Fatalf("round %d (%d ids): set-based engine diverges from the per-id loop's", round, n)
		}
		if len(*setLog) != 1 || len((*setLog)[0].Stmts) > 2 {
			t.Fatalf("round %d: %d ids committed %d entries (first holds %d statements), want one entry of at most two",
				round, n, len(*setLog), len((*setLog)[0].Stmts))
		}
		if got.Token != (*setLog)[0].Index {
			t.Fatalf("round %d: token %d, entry index %d", round, got.Token, (*setLog)[0].Index)
		}
		setStream = append(setStream, (*setLog)[0])
		loopStream = append(loopStream, (*loopLog)...)
		*setLog, *loopLog = (*setLog)[:0], (*loopLog)[:0]
	}

	live := engineBytes(t, set)
	for name, stream := range map[string][]minisql.LogEntry{"set-based": setStream, "row-per-Stmt": loopStream} {
		replica := newTestDB(t)
		replayAll(t, replica, stream)
		if !bytes.Equal(engineBytes(t, replica), live) {
			t.Fatalf("replaying the %s log does not reproduce the live engine", name)
		}
	}
}

// TestUpdatePrioritiesWakesOnlyOnChange: no UpdatePriorities call wakes the
// long-polling pops, and an empty call executes and logs nothing. That holds
// for a call that did change a queued row's priority too: a poller parks only
// after its pop came back empty, and reordering the rows of a queue cannot
// make an empty pop non-empty — waking it would only re-run the pop under the
// engine lock. Only the commit observer's queued transition wakes QueryTasks.
func TestUpdatePrioritiesWakesOnlyOnChange(t *testing.T) {
	db := newTestDB(t)
	ids, err := idsOf(db.SubmitBatch(bg, "exp", 1, []string{"a", "b", "c"}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryTasks(within(t, waitMax), 1, 2, "p"); err != nil {
		t.Fatal(err)
	}
	log := captureLog(db.Engine())
	woken := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	wake := db.outN.Wait()
	res, err := db.UpdatePriorities(bg, ids[:2], []int{9})
	if err != nil || res.Count != 0 {
		t.Fatalf("reprioritising popped tasks = %+v, %v; want count 0", res, err)
	}
	if woken(wake) {
		t.Fatal("a call that changed nothing woke the queue's pollers")
	}

	before := len(*log)
	res, err = db.UpdatePriorities(bg, nil, []int{9})
	if err != nil || res.Count != 0 || res.Token != db.Token() {
		t.Fatalf("empty call = %+v, %v; want count 0 with the covering token %d", res, err, db.Token())
	}
	if woken(wake) || len(*log) != before {
		t.Fatalf("empty call woke pollers or logged %d entries", len(*log)-before)
	}

	res, err = db.UpdatePriorities(bg, ids, []int{9})
	if err != nil || res.Count != 1 {
		t.Fatalf("reprioritising one queued task = %+v, %v; want count 1", res, err)
	}
	if woken(wake) {
		t.Fatal("a priority change woke the queue's pollers")
	}
}
