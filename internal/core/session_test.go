package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// walDB returns a DB whose engine records commits into its Log, like a
// replicated leader — the configuration under which commit tokens are real.
func walDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	db.Engine().SetCommitHook(db.Log().Append)
	return db
}

// TestPopTokensLogged is the core half of the read-your-pops redesign: every
// mutating operation — the three pop paths included — commits through the
// statement log and returns a strictly advancing commit token.
func TestPopTokensLogged(t *testing.T) {
	db := walDB(t)
	ctx := context.Background()

	sub, err := db.Submit(ctx, "e", 1, "p1")
	if err != nil || sub.Token == 0 {
		t.Fatalf("Submit = %+v, %v; want a non-zero token", sub, err)
	}
	last := sub.Token

	popped, err := db.QueryTasks(ctx, 1, 1, "pool")
	if err != nil || len(popped.Tasks) != 1 {
		t.Fatalf("QueryTasks = %+v, %v", popped, err)
	}
	if popped.Token <= last {
		t.Fatalf("pop token %d does not advance past submit token %d — the pop was not logged", popped.Token, last)
	}
	last = popped.Token

	rep, err := db.Report(ctx, sub.ID, 1, "r")
	if err != nil || rep.Token <= last {
		t.Fatalf("Report token %d after %d, %v", rep.Token, last, err)
	}
	last = rep.Token

	res, err := db.PopResults(ctx, []int64{sub.ID}, 1)
	if err != nil || len(res.Results) != 1 {
		t.Fatalf("PopResults = %+v, %v", res, err)
	}
	if res.Token <= last {
		t.Fatalf("result-pop token %d does not advance past report token %d", res.Token, last)
	}

	// QueryResult is a pop too.
	sub2, _ := db.Submit(ctx, "e", 1, "p2")
	db.QueryTasks(ctx, 1, 1, "pool")
	db.Report(ctx, sub2.ID, 1, "r2")
	qres, err := db.QueryResult(ctx, sub2.ID)
	if err != nil || qres.Token == 0 {
		t.Fatalf("QueryResult = %+v, %v; want a pop token", qres, err)
	}

	// The DB session token is the high-water mark over everything above.
	if db.Token() < qres.Token {
		t.Fatalf("DB.Token() = %d behind the last pop token %d", db.Token(), qres.Token)
	}

	// Counting mutations carry tokens as well.
	sub3, _ := db.Submit(ctx, "e", 1, "p3")
	up, err := db.UpdatePriorities(ctx, []int64{sub3.ID}, []int{4})
	if err != nil || up.Count != 1 || up.Token == 0 {
		t.Fatalf("UpdatePriorities = %+v, %v", up, err)
	}
	ca, err := db.CancelTasks(ctx, []int64{sub3.ID})
	if err != nil || ca.Count != 1 || ca.Token <= up.Token {
		t.Fatalf("CancelTasks = %+v, %v", ca, err)
	}
}

// TestPollingContextSemantics: an expired deadline still pops a ready task
// (the v1 zero-timeout contract), an expired deadline on an empty queue is
// ErrTimeout, and an explicit cancellation surfaces as context.Canceled.
func TestPollingContextSemantics(t *testing.T) {
	db := walDB(t)
	if _, err := db.Submit(context.Background(), "e", 1, "ready"); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	popped, err := db.QueryTasks(expired, 1, 1, "p")
	if err != nil || len(popped.Tasks) != 1 {
		t.Fatalf("ready task with expired deadline = %+v, %v; want one immediate pop", popped, err)
	}
	if _, err := db.QueryTasks(expired, 1, 1, "p"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty queue with expired deadline = %v, want ErrTimeout", err)
	}

	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := db.QueryTasks(canceled, 1, 1, "p"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled poll = %v, want context.Canceled", err)
	}
}
