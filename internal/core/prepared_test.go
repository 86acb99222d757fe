package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"osprey/internal/minisql"
	"osprey/internal/watch"
)

// lifecycle drives tasks through every transition the classifier publishes:
// submit, pop, report, cancel, and a requeue of a pool's running task.
func lifecycle(t testing.TB, db *DB, exp string) {
	t.Helper()
	ids, err := idsOf(db.SubmitBatch(bg, exp, 4, []string{"a", "b"}, []int{2, 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit(bg, exp, 4, "c", WithTags("x")); err != nil {
		t.Fatal(err)
	}
	popped, err := tasksOf(db.QueryTasks(within(t, waitMax), 4, 1, "p"))
	if err != nil || len(popped) != 1 || popped[0].ID != ids[0] {
		t.Fatalf("pop = %+v, %v; want task %d", popped, err, ids[0])
	}
	if _, err := db.Report(bg, ids[0], 4, "done"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CancelTasks(bg, ids[1:]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryTasks(within(t, waitMax), 4, 1, "q"); err != nil {
		t.Fatal(err)
	}
	if n, err := countOf(db.RequeueRunning(bg, "q")); err != nil || n != 1 {
		t.Fatalf("requeue = %d, %v; want 1", n, err)
	}
	if _, err := db.UpdatePriorities(bg, ids, []int{5}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyByHandle: a follower that replays the leader's log publishes
// the transitions the leader published — submit, requeue, pop, report and
// cancel — because ApplyEntry resolves each record's text to the follower's
// pinned handle, the handle the classifier compares. It still holds after
// 600 distinct ad-hoc texts went through the follower's text index, past the
// bound at which the index drops every text it was not asked to prepare.
func TestClassifyByHandle(t *testing.T) {
	leader, follower := newTestDB(t), newTestDB(t)
	log := captureLog(leader.Engine())
	streams := make([]watch.Stream, 2)
	for i, db := range []*DB{leader, follower} {
		st, err := db.Watch(within(t, waitMax), watch.Query{All: true}, 64)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		streams[i] = st
	}
	replay := func() {
		for _, e := range *log {
			if err := follower.Engine().ApplyEntry(e); err != nil {
				t.Fatalf("replaying entry %d: %v", e.Index, err)
			}
		}
		*log = (*log)[:0]
	}
	lifecycle(t, leader, "before")
	replay()
	for i := 0; i < 600; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM eq_tasks WHERE task_id = %d", i)
		if err := follower.Engine().ApplyEntry(minisql.LogEntry{Stmts: []minisql.Stmt{{SQL: sql}}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := follower.Engine().PlanCacheStats(); st.Evictions == 0 {
		t.Fatalf("600 ad-hoc texts dropped nothing from the follower's text index: %+v", st)
	}
	lifecycle(t, leader, "after")
	replay()

	const want = 2 * 8 // per lifecycle: 3 submits and a requeue queued, 2 running, complete, canceled
	led, followed := collect(t, streams[0], want), collect(t, streams[1], want)
	statuses := map[string]int{}
	for _, ev := range led {
		statuses[ev.Status]++
	}
	if fmt.Sprint(led) != fmt.Sprint(followed) || len(led) != want ||
		statuses[watch.StatusQueued] != 8 || statuses[watch.StatusRunning] != 4 ||
		statuses[watch.StatusComplete] != 2 || statuses[watch.StatusCanceled] != 2 {
		t.Fatalf("leader published %v\nfollower published %v", led, followed)
	}
}

// readArgs gives every read core prepares the arguments
// TestStreamedReadMatchesExec runs it with on a database after lifecycle.
func readArgs() map[statement][]minisql.Value {
	i, s := minisql.Int64, minisql.Text
	ids := []minisql.Value{i(1), i(2), i(3), i(4), i(5), i(6), i(7), i(8), i(99)}
	return map[statement][]minisql.Value{
		expCount:       {s("before")},
		dedupSel:       {s("k2")},
		popPick:        {i(4), i(5)},
		popTasksSel:    ids,
		reportSel:      {i(1)},
		popResultsPick: append(slices.Clone(ids), i(10)),
		popResultsSel:  ids,
		statusesSel:    ids,
		prioritiesSel:  ids,
		requeueSel:     {s("p2"), s(string(StatusRunning))},
		countStatus:    {s(string(StatusQueued))},
		countStatusExp: {s(string(StatusQueued)), s("after")},
		tagsSel:        {i(3)},
		taskSel:        {i(2)},
		outQTypes:      nil,
		runningTypes:   {s(string(StatusRunning))},
	}
}

// runText runs one write or DDL statement on eng through a handle prepared
// from its text.
func runText(eng *minisql.Engine, sql string) error {
	h, err := eng.Prepare(sql)
	if err != nil {
		return err
	}
	_, err = eng.TxLogged(func(tx *minisql.Tx) error {
		_, err := tx.Run(h)
		return err
	})
	return err
}

// readRows runs a prepared read on eng and returns a copy of its rows; a
// COUNT(*) is one row holding the count.
func readRows(eng *minisql.Engine, h *minisql.Prepared, count bool, args []minisql.Value) ([][]minisql.Value, error) {
	var rows [][]minisql.Value
	_, err := eng.TxLogged(func(tx *minisql.Tx) error {
		if count {
			n, err := tx.Count(h, args...)
			rows = [][]minisql.Value{{minisql.Int64(int64(n))}}
			return err
		}
		return tx.Query(h, args, func(row []minisql.Value) error {
			rows = append(rows, slices.Clone(row))
			return nil
		})
	})
	return rows, err
}

// TestStreamedReadMatchesExec: every read core prepares streams through its
// handle (Tx.Query, or Tx.Count for a COUNT(*)) exactly the rows a fresh
// handle for the same text streams on an engine restored from the same
// state, where the text is compiled and bound afresh.
func TestStreamedReadMatchesExec(t *testing.T) {
	db := newTestDB(t)
	lifecycle(t, db, "before")
	lifecycle(t, db, "after")
	if _, err := db.SubmitBatch(bg, "after", 4, []string{"d", "e"}, nil, []string{"k1", "k2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryTasks(within(t, waitMax), 4, 1, "p2"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := db.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	ref := minisql.NewEngine()
	if err := ref.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	args := readArgs()
	reads := 0
	for id, sql := range statementSQL {
		if !strings.HasPrefix(sql, "SELECT") {
			continue
		}
		reads++
		h := db.stmts[id]
		a, ok := args[statement(id)]
		if !ok {
			t.Fatalf("no arguments for the prepared read %q", sql)
		}
		count := strings.HasPrefix(sql, "SELECT COUNT(*)")
		got, err := readRows(db.Engine(), h, count, a)
		if err != nil {
			t.Fatalf("%q streamed: %v", sql, err)
		}
		fresh, err := ref.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := readRows(ref, fresh, count, a)
		if err != nil {
			t.Fatalf("%q on the restored engine: %v", sql, err)
		}
		if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q %v: streamed %v, restored %v (want a non-empty match)", sql, a, got, want)
		}
	}
	if reads != len(args) {
		t.Fatalf("%d prepared reads, %d given arguments", reads, len(args))
	}
}

// fuzzArgs decodes a fuzz input into statement arguments: per value a kind
// byte, then eight bytes for a number or a length byte and text.
func fuzzArgs(b []byte) []minisql.Value {
	var vals []minisql.Value
	for len(b) > 0 {
		kind := b[0] % 4
		b = b[1:]
		switch {
		case kind == 0:
			vals = append(vals, minisql.Null())
		case kind == 3 && len(b) > 0:
			n := min(int(b[0]), len(b)-1)
			vals = append(vals, minisql.Text(string(b[1:1+n])))
			b = b[1+n:]
		case len(b) >= 8:
			u := binary.LittleEndian.Uint64(b)
			if kind == 1 {
				vals = append(vals, minisql.Int64(int64(u)))
			} else {
				vals = append(vals, minisql.Float64(math.Float64frombits(u)))
			}
			b = b[8:]
		default:
			return vals
		}
	}
	return vals
}

// fuzzBytes encodes arguments the way fuzzArgs decodes them.
func fuzzBytes(vals []minisql.Value) []byte {
	var b []byte
	for _, v := range vals {
		switch v.Kind {
		case minisql.KindNull:
			b = append(b, 0)
		case minisql.KindInt:
			b = binary.LittleEndian.AppendUint64(append(b, 1), uint64(v.Int))
		case minisql.KindFloat:
			b = binary.LittleEndian.AppendUint64(append(b, 2), math.Float64bits(v.Float))
		case minisql.KindText:
			text := v.Text[:min(len(v.Text), 255)]
			b = append(append(b, 3, byte(len(text))), text...)
		}
	}
	return b
}

// FuzzApplyEntry feeds the follower's statement path — Engine.ApplyEntry on
// an engine that has core's schema and prepared handles, which every
// follower runs on records from the replication socket — entries whose SQL
// text and arguments are mutated from a churned database's real ones. An
// entry may fail but must not panic, and a failed entry leaves the engine's
// snapshot bytes exactly as they were.
func FuzzApplyEntry(f *testing.F) {
	src, err := NewDB()
	if err != nil {
		f.Fatal(err)
	}
	defer src.Close()
	log := captureLog(src.Engine())
	lifecycle(f, src, "e")
	for _, e := range *log {
		for _, s := range e.Stmts {
			f.Add(s.SQL, fuzzBytes(s.Args))
		}
	}
	db, err := NewDB()
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	for _, e := range *log {
		if err := db.Engine().ApplyEntry(e); err != nil {
			f.Fatal(err)
		}
	}
	var base bytes.Buffer
	if err := db.Snapshot(&base); err != nil {
		f.Fatal(err)
	}
	snapshot := func(t *testing.T) []byte {
		var b bytes.Buffer
		if err := db.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, sql string, args []byte) {
		before := snapshot(t)
		entry := minisql.LogEntry{Index: db.Token() + 1, Stmts: []minisql.Stmt{{SQL: sql, Args: fuzzArgs(args)}}}
		if err := db.Engine().ApplyEntry(entry); err != nil {
			if !bytes.Equal(snapshot(t), before) {
				t.Fatalf("failed entry %q %v (%v) changed the engine", sql, entry.Stmts[0].Args, err)
			}
			return
		}
		// A successful entry changed the state the next input should start
		// from: go back to the churned base.
		if err := db.Restore(bytes.NewReader(base.Bytes()), db.Token()); err != nil {
			t.Fatal(err)
		}
	})
}
