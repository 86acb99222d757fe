package minisql

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

// stringKey is the hash-index key Value.key built before keys became values,
// kept as the reference for which Values share a key.
func stringKey(v Value) string {
	switch v.Kind {
	case KindNull:
		return "n"
	case KindInt:
		return "i" + strconv.FormatInt(v.Int, 10)
	default:
		return "t" + v.Text
	}
}

// TestHashKeyCanonicalisation: two Values share a hashKey exactly when they
// shared a string key.
func TestHashKeyCanonicalisation(t *testing.T) {
	vals := []Value{
		Null(), Int64(0), Int64(1), Int64(-1), Int64(math.MaxInt64), Int64(math.MinInt64),
		Int64(1 << 53), Int64(1<<53 + 2),
		Text(""), Text("0"), Text("1"), Text("-1"), Text("1.0"), Text("n"), Text("i1"), Text("a"),
	}
	same := func(a, b Value) bool { return (a.key() == b.key()) == (stringKey(a) == stringKey(b)) }
	for _, a := range vals {
		for _, b := range vals {
			if !same(a, b) {
				t.Errorf("%#v and %#v: hashKeys equal %v, string keys %q and %q",
					a, b, a.key() == b.key(), stringKey(a), stringKey(b))
			}
		}
	}
	// Random pairs, each also tried as the text form a TEXT column would
	// coerce it to.
	check := func(i, j int64, s string) bool {
		pool := []Value{Int64(i), Text(strconv.FormatInt(i, 10)), Int64(j), Int64(i % 7), Text(s)}
		for _, a := range pool {
			for _, b := range pool {
				if !same(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestHashSideModel drives one index's hash side against a plain
// map[int64]struct{} per key: add, duplicate add, remove, remove of an id or
// a key that is not there, sets crossing 0, 1 and 2 ids in both directions.
// lookup must read the model's ids ascending, count its size, and a key
// whose last id left must be gone from the map.
func TestHashSideModel(t *testing.T) {
	ix := &hashIndex{cols: []int{0}, m: make(map[hashKey]idSet)}
	model := map[int64]map[int64]struct{}{}
	check := func(when string) {
		t.Helper()
		if len(ix.m) != len(model) {
			t.Fatalf("%s: index holds %d keys, model %d", when, len(ix.m), len(model))
		}
		for k := int64(-1); k <= 4; k++ {
			want := make([]int64, 0, len(model[k]))
			for id := range model[k] {
				want = append(want, id)
			}
			slices.Sort(want)
			got := ix.lookup([]int64{-7}, Int64(k))
			if got[0] != -7 || !slices.Equal(got[1:], want) || ix.count(Int64(k)) != len(want) {
				t.Fatalf("%s: key %d: lookup %v count %d, model %v", when, k, got[1:], ix.count(Int64(k)), want)
			}
			if set, ok := ix.m[Int64(k).key()]; ok {
				if _, in := model[k][set.any()]; !in || set.len() != len(want) {
					t.Fatalf("%s: key %d: any() = %d, len() = %d, model %v", when, k, set.any(), set.len(), want)
				}
			}
		}
	}
	add := func(k, id int64) {
		ix.add(ordEntry{v: Int64(k), v2: Null(), id: id})
		if model[k] == nil {
			model[k] = map[int64]struct{}{}
		}
		model[k][id] = struct{}{}
	}
	remove := func(k, id int64) {
		ix.remove(ordEntry{v: Int64(k), v2: Null(), id: id})
		delete(model[k], id)
		if len(model[k]) == 0 {
			delete(model, k)
		}
	}
	steps := []struct {
		op    func(k, id int64)
		k, id int64
		what  string
	}{
		{remove, 0, 1, "remove from an empty index"},
		{add, 0, 1, "0 -> 1"}, {add, 0, 1, "duplicate add of the inline id"},
		{remove, 0, 2, "remove an id the inline set does not hold"},
		{add, 0, 2, "1 -> 2"}, {add, 0, 2, "duplicate add into the grown set"},
		{remove, 0, 3, "remove an id the grown set does not hold"},
		{remove, 0, 1, "2 -> 1, the inline id leaves first"},
		{remove, 0, 1, "remove it again"}, {add, 0, 5, "1 -> 2 again"},
		{remove, 0, 5, "2 -> 1"}, {remove, 0, 2, "1 -> 0"}, {remove, 0, 2, "remove from a vanished key"},
		{add, 1, 9, "another key, 0 -> 1"}, {remove, 1, 9, "1 -> 0 inline"},
	}
	for _, s := range steps {
		s.op(s.k, s.id)
		check(s.what)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k, id := int64(rng.Intn(4)), int64(rng.Intn(6))
		if rng.Intn(2) == 0 {
			add(k, id)
		} else {
			remove(k, id)
		}
		check(fmt.Sprintf("random step %d", i))
	}
}

// TestCompositeIndexHasNoHashSide: a two-column index keeps no hash entries —
// no probe could read them — through inserts, key-changing updates, deletes
// and rollback, yet its sorted side still serves the ordered pop, also after
// snapshot -> restore -> CREATE ORDERED INDEX upgrading a plain one in place.
func TestCompositeIndexHasNoHashSide(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY, wt INTEGER, p INTEGER)")
	mustExec(t, e, "CREATE INDEX q_p ON q (p, id)")
	for i := 1; i <= 40; i++ {
		mustExec(t, e, "INSERT INTO q (id, wt, p) VALUES (?, 1, ?)", Int64(int64(i)), Int64(int64(i%4)))
	}
	mustExec(t, e, "UPDATE q SET p = 9 WHERE id = 7")
	mustExec(t, e, "DELETE FROM q WHERE id = 8")
	if _, err := e.TxLogged(func(tx *Tx) error {
		if _, err := txExecSQL(tx, "UPDATE q SET p = 5 WHERE wt = 1"); err != nil {
			return err
		}
		return fmt.Errorf("abort")
	}); err == nil {
		t.Fatal("transaction committed")
	}
	const pop = "SELECT id FROM q WHERE wt = 1 ORDER BY p DESC, id ASC LIMIT 5"
	want := "[[7] [3] [11] [15] [19]]"
	served := func(e *Engine) bool {
		t.Helper()
		ix := e.tables["q"].indexes["p,id"]
		if ix == nil || ix.m != nil {
			t.Fatalf("composite index = %+v, want one without a hash side", ix)
		}
		_, fromIndex, err := boundOf(t, e, pop).orderedTopN(nil, &evalCtx{})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(mustExec(t, e, pop).Rows); got != want {
			t.Fatalf("pop = %s, want %s", got, want)
		}
		return fromIndex
	}
	if served(e) {
		t.Fatal("a plain composite index has no sorted side to serve the pop from")
	}
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r := NewEngine()
	if err := r.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if served(r) {
		t.Fatal("restored plain composite index served the pop")
	}
	mustExec(t, r, "CREATE ORDERED INDEX IF NOT EXISTS q_p ON q (p, id)")
	if !served(r) {
		t.Fatal("upgraded composite index was not chosen for the ordered pop")
	}
	mustExec(t, r, "UPDATE q SET p = 1 WHERE id = 7")
	want = "[[3] [11] [15] [19] [23]]"
	if !served(r) {
		t.Fatal("composite index dropped after a key-changing update")
	}
}
