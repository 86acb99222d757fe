package osprey

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
	"osprey/internal/pool"
	"osprey/internal/replica"
	"osprey/internal/service"
)

// TestFacadeEndToEnd exercises the public API exactly as the package doc
// advertises: local DB, pool, futures.
func TestFacadeEndToEnd(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	p, err := NewPool(db, PoolConfig{Name: "p", Workers: 2, WorkType: 1},
		func(payload string) (string, error) { return "ok:" + payload, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	f, err := Submit(db, "exp", 1, "hello", WithPriority(3), WithTags("facade"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Result(5 * time.Second)
	if err != nil || res != "ok:hello" {
		t.Fatalf("Result = %q, %v", res, err)
	}
	st, err := f.Status()
	if err != nil || st != StatusComplete {
		t.Fatalf("Status = %v, %v", st, err)
	}
	tags, err := db.Tags(ctx, f.TaskID())
	if err != nil || len(tags) != 1 || tags[0] != "facade" {
		t.Fatalf("Tags = %v, %v", tags, err)
	}
	if f.Token() != db.Token() && db.Token() != 0 {
		t.Fatalf("future token %d does not track the DB high-water mark %d", f.Token(), db.Token())
	}
}

// TestFacadeRemote exercises Serve/Dial through the facade.
func TestFacadeRemote(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := Submit(c, "exp", 1, "remote")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Result(50 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout (no pool attached)", err)
	}
	ok, err := f.Cancel()
	if err != nil || !ok {
		t.Fatalf("Cancel = %v, %v", ok, err)
	}
}

// TestOptionSurfacePinned lists the exported fields of the structs that carry
// the system's options, so adding or removing an option is a one-line diff
// here that review sees.
func TestOptionSurfacePinned(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{replica.Config{}, "ID Priority Addr Advertise ServiceAddr Join Heartbeat ElectionTimeout WriteQuorum LeaseTimeout DataDir Fsync CheckpointEvery GroupCommitDelay Logf Dialer Listen FS"},
		{service.ClusterClient{}, "FailTimeout DialTimeout Dialer ReadFromFollowers"},
		{service.DialOptions{}, "Timeout Dialer"},
		{pool.Config{}, "Name Workers BatchSize Threshold WorkType CoresOf Metrics"},
		{core.OpenOptions{}, "Fsync CheckpointEvery SegmentBytes Logf FS"},
		{minisql.StoreOptions{}, "Fsync CheckpointEvery SegmentBytes Logf FS"},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("%v fields = %q, want %q", typ, g, c.want)
		}
	}
}
