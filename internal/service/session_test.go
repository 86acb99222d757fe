package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"osprey/internal/core"
)

// remote is what both remote clients offer: the Session surface plus the
// three control ops the session type also holds.
type remote interface {
	core.Session
	Ping() error
	Cluster() (ClusterInfo, error)
	ClusterStats() (map[string]float64, error)
}

// driveSession runs every op of the remote session through s on its own
// experiment and work type, checks the token contract as it goes, and returns
// a transcript of every result with task ids made relative to the first one
// submitted — so two transcripts from one database compare field for field.
func driveSession(t *testing.T, name string, s remote, exp string, wt int) []any {
	t.Helper()
	var out []any
	var base int64
	log := func(op string, v ...any) { out = append(out, append([]any{op}, v...)) }
	rel := func(ids ...int64) []int64 {
		r := make([]int64, len(ids))
		for i, id := range ids {
			r[i] = id - base
		}
		return r
	}
	task := func(tk core.Task) []any {
		return []any{tk.ID - base, tk.ExpID == exp, tk.WorkType - wt, tk.Status, tk.Payload,
			tk.Result, tk.Pool, tk.Priority, tk.Created.IsZero(), tk.Started.IsZero(), tk.Stopped.IsZero()}
	}
	must := func(op string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %s: %v", name, op, err)
		}
	}
	// Every mutating result carries its own commit token, above everything the
	// session had seen, and the session's token ratchets to cover it.
	var last core.Token
	wrote := func(op string, tok core.Token) {
		t.Helper()
		if tok <= last || s.Token() < tok {
			t.Fatalf("%s: %s token %d after %d, session token %d: not a ratchet", name, op, tok, last, s.Token())
		}
		last = tok
	}
	expired, cancelExpired := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancelExpired()
	canceled, cancel := context.WithCancel(bg)
	cancel()

	sub, err := s.Submit(bg, exp, wt, "p0", core.WithPriority(3), core.WithTags("a", "b"))
	must("Submit", err)
	base = sub.ID
	wrote("Submit", sub.Token)
	batch, err := s.SubmitBatch(bg, exp, wt, []string{"p1", "p2", "p3", "p4"}, []int{1, 2, 5, 4}, nil)
	must("SubmitBatch", err)
	wrote("SubmitBatch", batch.Token)
	log("SubmitBatch", rel(batch.IDs...))
	ids := append([]int64{sub.ID}, batch.IDs...)

	reads := func(stage string) {
		t.Helper()
		for _, lvl := range []struct {
			name string
			opts []core.ReadOption
		}{{"session", nil}, {"strong", []core.ReadOption{core.Strong()}}, {"eventual", []core.ReadOption{core.Eventual()}}} {
			sts, err := s.Statuses(bg, ids, lvl.opts...)
			must("Statuses/"+lvl.name, err)
			prios, err := s.Priorities(bg, ids, lvl.opts...)
			must("Priorities/"+lvl.name, err)
			counts, err := s.Counts(bg, exp, lvl.opts...)
			must("Counts/"+lvl.name, err)
			tags, err := s.Tags(bg, sub.ID, lvl.opts...)
			must("Tags/"+lvl.name, err)
			row, err := s.GetTask(bg, batch.IDs[2], lvl.opts...)
			must("GetTask/"+lvl.name, err)
			relSts, relPrios := map[int64]core.Status{}, map[int64]int{}
			for id, st := range sts {
				relSts[id-base] = st
			}
			for id, p := range prios {
				relPrios[id-base] = p
			}
			log(stage+"/"+lvl.name, relSts, relPrios, counts, tags, task(row))
		}
		if _, err := s.GetTask(bg, 1<<40); err == nil {
			t.Fatalf("%s: GetTask of an unknown id succeeded", name)
		}
		if s.Token() < last {
			t.Fatalf("%s: reads moved the session token back to %d (< %d)", name, s.Token(), last)
		}
	}
	reads("queued")

	upd, err := s.UpdatePriorities(bg, batch.IDs[:2], []int{9, 8})
	must("UpdatePriorities", err)
	wrote("UpdatePriorities", upd.Token)
	log("UpdatePriorities", upd.Count)

	popped, err := s.QueryTasks(within(t, waitMax), wt, 2, "pool")
	must("QueryTasks", err)
	wrote("QueryTasks", popped.Token)
	for _, tk := range popped.Tasks {
		log("QueryTasks", task(tk))
		rep, err := s.Report(bg, tk.ID, wt, "r:"+tk.Payload)
		must("Report", err)
		wrote("Report", rep.Token)
	}
	if len(popped.Tasks) != 2 {
		t.Fatalf("%s: QueryTasks popped %d tasks, want 2", name, len(popped.Tasks))
	}
	one, err := s.QueryResult(within(t, waitMax), popped.Tasks[0].ID)
	must("QueryResult", err)
	wrote("QueryResult", one.Token)
	log("QueryResult", one.Result)
	// An expired deadline still earns a polling call its one attempt.
	rest, err := s.PopResults(expired, ids, 5)
	must("PopResults on an expired deadline", err)
	wrote("PopResults", rest.Token)
	for _, r := range rest.Results {
		log("PopResults", r.ID-base, r.Result)
	}
	if _, err := s.PopResults(expired, ids, 5); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("%s: empty PopResults on an expired deadline = %v, want ErrTimeout", name, err)
	}

	can, err := s.CancelTasks(bg, []int64{sub.ID})
	must("CancelTasks", err)
	wrote("CancelTasks", can.Token)
	log("CancelTasks", can.Count)
	again, err := s.QueryTasks(expired, wt, 1, "pool")
	must("QueryTasks on an expired deadline", err)
	wrote("QueryTasks", again.Token)
	req, err := s.RequeueRunning(bg, "pool")
	must("RequeueRunning", err)
	wrote("RequeueRunning", req.Token)
	log("RequeueRunning", len(again.Tasks), req.Count)
	reads("settled")

	// A canceled context executes no write, pops included.
	before, err := s.Counts(bg, exp, core.Strong())
	must("Counts", err)
	_, e1 := s.Submit(canceled, exp, wt, "never")
	_, e2 := s.SubmitBatch(canceled, exp, wt, []string{"never"}, []int{1}, nil)
	_, e3 := s.QueryTasks(canceled, wt, 1, "pool")
	_, e4 := s.Report(canceled, batch.IDs[3], wt, "never")
	_, e5 := s.QueryResult(canceled, popped.Tasks[1].ID)
	_, e6 := s.PopResults(canceled, ids, 1)
	_, e7 := s.UpdatePriorities(canceled, ids, []int{7, 7, 7, 7, 7})
	_, e8 := s.CancelTasks(canceled, ids)
	_, e9 := s.RequeueRunning(canceled, "pool")
	_, e10 := s.Statuses(canceled, ids)
	for i, err := range []error{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10} {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: call %d on a canceled context = %v, want context.Canceled", name, i+1, err)
		}
	}
	after, err := s.Counts(bg, exp, core.Strong())
	must("Counts", err)
	if !reflect.DeepEqual(before, after) || s.Token() != last {
		t.Fatalf("%s: canceled calls executed: counts %v -> %v, token %d -> %d", name, before, after, last, s.Token())
	}

	must("Ping", s.Ping())
	info, err := s.Cluster()
	must("Cluster", err)
	log("Cluster", info)
	stats, err := s.ClusterStats()
	must("ClusterStats", err)
	log("ClusterStats", stats[`osprey_service_requests_total{op="submit"}`] > 0)
	return out
}

// TestRemoteSessionsAgree drives the whole op set through a Client and a
// ClusterClient against one standalone server: the ops are written once
// (session.go), so apart from how a request travels the two must behave as
// one — same results field for field, tokens ratcheting on both, every
// consistency level, an expired deadline still earning a poll its one
// attempt, a canceled context executing nothing.
func TestRemoteSessionsAgree(t *testing.T) {
	// A durable database, so that commits carry real tokens.
	db, err := core.Open(t.TempDir(), core.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc, err := DialCluster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	single := driveSession(t, "Client", c, "exp-c", 1)
	cluster := driveSession(t, "ClusterClient", cc, "exp-cc", 2)
	if len(single) != len(cluster) {
		t.Fatalf("transcripts differ in length: Client %d, ClusterClient %d", len(single), len(cluster))
	}
	for i := range single {
		if !reflect.DeepEqual(single[i], cluster[i]) {
			t.Errorf("step %d differs:\n  Client        %+v\n  ClusterClient %+v", i, single[i], cluster[i])
		}
	}
}

// TestClientMethodSetsPinned holds the exported method sets of the two client
// types by name: most of them are promoted from the embedded session, where a
// rename or a removal would break benchmark/, cmd/ and the osprey facade
// without touching either client file.
func TestClientMethodSetsPinned(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{(*Client)(nil), "CancelTasks Close Cluster ClusterStats Counts GetTask LastToken Ping PopResults " +
			"Priorities Promote QueryResult QueryTasks Report RequeueRunning Statuses Submit SubmitBatch " +
			"Tags Token UpdatePriorities Watch"},
		{(*ClusterClient)(nil), "CancelTasks Close Cluster ClusterStats Counts GetTask Leader Ping PopResults " +
			"Priorities QueryResult QueryTasks Report RequeueRunning Statuses String Submit SubmitBatch " +
			"Tags Token UpdatePriorities Watch"},
	} {
		ty := reflect.TypeOf(tc.v)
		var got []string
		for i := 0; i < ty.NumMethod(); i++ {
			got = append(got, ty.Method(i).Name)
		}
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("%v exports\n  %s\nwant\n  %s", ty, s, tc.want)
		}
	}
}
