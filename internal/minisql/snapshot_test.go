package minisql

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// TestSnapshotPreservesIndexesAndNextKey pins down the checkpoint fields that
// had no direct coverage: secondary index definitions and the AUTOINCREMENT
// nextKey must survive a snapshot round trip, or a restored replica would
// serve unindexed scans and hand out duplicate task ids.
func TestSnapshotPreservesIndexesAndNextKey(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, wt INTEGER, v TEXT)")
	mustExec(t, e, "CREATE INDEX t_wt ON t (wt)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, "INSERT INTO t (wt, v) VALUES (?, ?)", Int64(int64(i%2)), Text("x"))
	}
	// Delete the highest row so nextKey (6) is ahead of the max stored id (4):
	// only the persisted nextKey field can restore it correctly.
	mustExec(t, e, "DELETE FROM t WHERE id = ?", Int64(5))

	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	e2 := NewEngine()
	if err := e2.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	t2 := e2.tables["t"]
	if t2 == nil {
		t.Fatal("restored engine lost table t")
	}
	if _, ok := t2.indexes["wt"]; !ok {
		t.Fatal("restored engine lost the secondary index on wt")
	}
	if _, ok := t2.indexes["id"]; !ok {
		t.Fatal("restored engine lost the primary-key index on id")
	}
	if t2.nextKey != 6 {
		t.Fatalf("restored nextKey = %d, want 6", t2.nextKey)
	}

	// The restored index actually answers queries.
	res := mustExec(t, e2, "SELECT id FROM t WHERE wt = ?", Int64(1))
	if len(res.Rows) != 2 {
		t.Fatalf("indexed lookup on restored engine returned %d rows, want 2", len(res.Rows))
	}

	// AUTOINCREMENT continues where the source left off.
	ins := mustExec(t, e2, "INSERT INTO t (wt, v) VALUES (?, ?)", Int64(0), Text("new"))
	if ins.LastInsertID != 6 {
		t.Fatalf("restored engine allocated id %d, want 6", ins.LastInsertID)
	}
}

// TestRestoredEngineReplaysWAL is the replication bootstrap path in miniature:
// snapshot at index N, then replay WAL entries > N, must equal the source.
func TestRestoredEngineReplaysWAL(t *testing.T) {
	src, w := newHookedEngine(t,
		"CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", Text("before-1"))
	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", Text("before-2"))

	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	snapIndex := w.LastIndex()

	mustExec(t, src, "INSERT INTO t (v) VALUES (?)", Text("after-1"))
	mustExec(t, src, "UPDATE t SET v = ? WHERE id = ?", Text("rewritten"), Int64(1))

	replica := NewEngine()
	if err := replica.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	entries, ok := entriesSince(t, w, snapIndex)
	if !ok || len(entries) != 2 {
		t.Fatalf("RecordsSince(%d): ok=%v len=%d, want 2", snapIndex, ok, len(entries))
	}
	for _, ent := range entries {
		if err := replica.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}

	const q = "SELECT id, v FROM t ORDER BY id ASC"
	want, got := mustExec(t, src, q), mustExec(t, replica, q)
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("replica has %d rows, source %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j].Compare(got.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: source %v replica %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

// encodeCheckpoint is the checkpoint writer run on tables given by hand.
func encodeCheckpoint(t testing.TB, cuts ...tableCut) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, cuts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ckptRecord frames body as one checkpoint record of the given kind.
func ckptRecord(kind byte, body []byte) []byte {
	b := append(make([]byte, recordHeaderSize), kind)
	return sealRecord(append(b, body...), 0)
}

// TestRestoreRejectsMalformedSnapshot: a checkpoint whose records check out
// but do not describe a database — damaged on disk, or sent by a broken
// leader — is refused with an error, and so is one whose bytes were damaged.
// Restore used to trust a decodable snapshot and panic while building
// indexes, so Store.Recover never reached the older checkpoint; and it used
// to load a text cell with a flipped byte as a different value.
func TestRestoreRejectsMalformedSnapshot(t *testing.T) {
	cols := []ColumnDef{
		{Name: "id", Type: TypeInteger, PrimaryKey: true, AutoInc: true},
		{Name: "v", Type: TypeText},
	}
	good := tableCut{name: "t", cols: cols, nextKey: 2, plain: []string{"id", "v"},
		rows: [][]Value{{Int64(1), Text("cell-text")}}}
	with := func(edit func(*tableCut)) []byte {
		c := good
		edit(&c)
		return encodeCheckpoint(t, c)
	}
	control := encodeCheckpoint(t, good)
	rowRecord := ckptRecord(ckptRows, appendValue(appendValue([]byte{2}, Int64(1)), Text("x")))
	header := encodeCheckpoint(t)
	flipped := bytes.Clone(control)
	flipped[bytes.Index(flipped, []byte("cell-text"))+2] ^= 0x01
	// control is three records: the header, the table's and its one rows
	// record. end[i] is where record i ends.
	var end []int
	off := 0
	walkRecords(control, func(rec, _ []byte) error {
		off += len(rec)
		end = append(end, off)
		return nil
	})
	cases := []struct {
		name string
		data []byte
	}{
		{"short row under an index on the missing column", with(func(c *tableCut) {
			c.rows = [][]Value{{Int64(1)}}
		})},
		{"short row under the primary key only", with(func(c *tableCut) {
			c.plain, c.rows = nil, [][]Value{{}}
		})},
		{"long row", with(func(c *tableCut) {
			c.rows = [][]Value{{Int64(1), Text("a"), Text("b")}}
		})},
		{"index on a column the table lacks", with(func(c *tableCut) { c.plain = []string{"w"} })},
		{"ordered index on a column the table lacks", with(func(c *tableCut) { c.ordered = []string{"v,w"} })},
		{"duplicate column", with(func(c *tableCut) { c.cols = append(cols[:2:2], cols[1]) })},
		{"duplicate table", encodeCheckpoint(t, good, good)},
		{"NextKey below a stored key", with(func(c *tableCut) { c.nextKey = 1 })},
		{"unknown value kind", with(func(c *tableCut) {
			c.rows = [][]Value{{Int64(1), {Kind: 9}}}
		})},
		{"rows record before any table record", append(bytes.Clone(header), rowRecord...)},
		{"more rows than the table record counts", append(bytes.Clone(control), rowRecord...)},
		{"fewer rows than the table record counts", control[:end[1]]},
		{"fewer tables than the header counts", append(encodeCheckpoint(t, good, good)[:end[0]], control[end[0]:]...)},
		{"bytes after the last record", append(bytes.Clone(control), 0)},
		{"a flipped byte inside a text cell", flipped},
		{"a gob-era checkpoint", gobEraCheckpoint(t)},
		{"empty", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			mustExec(t, e, "CREATE TABLE keep (id INTEGER)")
			err := e.Restore(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("Restore accepted the snapshot")
			}
			t.Log(err)
			if _, ok := e.tables["keep"]; !ok {
				t.Fatal("a refused Restore replaced the engine's tables")
			}
		})
	}
	if err := NewEngine().Restore(bytes.NewReader(control)); err != nil {
		t.Fatalf("Restore refused the well-formed control: %v", err)
	}
}

// gobEraCheckpointHex is the opening of a checkpoint of core's empty schema
// as builds before the record format wrote it: one encoding/gob message, the
// snapDB type's definition first.
const gobEraCheckpointHex = "" +
	"2b7f03010106736e6170444201ff80000102010756657273696f6e0104000106" +
	"5461626c657301ff9000000022ff8f020101135b5d6d696e6973716c2e736e61"

func gobEraCheckpoint(t testing.TB) []byte {
	b, err := hex.DecodeString(gobEraCheckpointHex)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRestoreRefusesGobEraCheckpoint: a gob-era checkpoint is refused with an
// error that names the format, not restored and not misread.
func TestRestoreRefusesGobEraCheckpoint(t *testing.T) {
	err := NewEngine().Restore(bytes.NewReader(gobEraCheckpoint(t)))
	if err == nil || !strings.Contains(err.Error(), "unrecognised checkpoint format") || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("Restore of a gob-era checkpoint: %v, want an error naming the format", err)
	}
}

// taskLikeEngine returns an engine with a log and a table shaped like the task
// table (a key, indexed and ordered columns, a text payload) holding n rows.
func taskLikeEngine(t testing.TB, n int) (*Engine, *Log) {
	t.Helper()
	e := NewEngine()
	for _, s := range []string{
		"CREATE TABLE tasks (id INTEGER PRIMARY KEY AUTOINCREMENT, exp TEXT, wt INTEGER, status INTEGER, prio INTEGER, payload TEXT, result TEXT)",
		"CREATE INDEX tasks_exp ON tasks (exp)",
		"CREATE ORDERED INDEX tasks_prio ON tasks (prio, id)",
	} {
		if _, err := execSQL(e, s); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.TxLogged(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if _, err := txExecSQL(tx, "INSERT INTO tasks (exp, wt, status, prio, payload) VALUES (?, ?, ?, ?, ?)", Text("exp"), Int64(int64(i%3)), Int64(0), Int64(int64(i%17)), Text(`{"x": [0.25, 0.5, 0.75], "seed": 12345}`)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w := leaderLog()
	e.SetCommitHook(w.Append)
	return e, w
}

// parkedWriter buffers a snapshot but blocks its first Write until released:
// the position of a checkpoint file on a slow disk, or a follower's socket.
type parkedWriter struct {
	bytes.Buffer
	entered, release chan struct{}
	once             sync.Once
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.Buffer.Write(p)
}

// TestSnapshotDoesNotBlockCommits: the engine lock covers the capture, not the
// encode. With the snapshot's writer parked, commits of every kind complete;
// the snapshot still is the state at the index it observed, so restoring it
// and replaying the log from there equals the live engine byte for byte.
func TestSnapshotDoesNotBlockCommits(t *testing.T) {
	e, w := taskLikeEngine(t, 20000)
	pw := &parkedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	var idx uint64
	snapDone := make(chan error, 1)
	go func() { snapDone <- e.SnapshotWith(pw, func() { idx = w.LastIndex() }) }()
	<-pw.entered

	commits := make(chan error, 1)
	go func() {
		for i := 1; i <= 200; i++ {
			var err error
			switch i % 4 {
			case 0:
				_, err = execSQL(e, "INSERT INTO tasks (exp, wt, status, prio, payload) VALUES (?, ?, ?, ?, ?)", Text("late"), Int64(1), Int64(0), Int64(int64(i)), Text("p"))
			case 1:
				_, err = execSQL(e, "UPDATE tasks SET status = ?, result = ? WHERE id = ?", Int64(2), Text("done"), Int64(int64(i*7)))
			case 2:
				_, err = execSQL(e, "UPDATE tasks SET prio = ? WHERE exp = ? AND wt = ?", Int64(int64(i)), Text("late"), Int64(1))
			case 3:
				_, err = execSQL(e, "DELETE FROM tasks WHERE id = ?", Int64(int64(i*11)))
			}
			if err != nil {
				commits <- err
				return
			}
		}
		commits <- nil
	}()
	select {
	case err := <-commits:
		if err != nil {
			t.Fatalf("commit beside a parked snapshot: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("commits are parked behind the snapshot's writer")
	}
	close(pw.release)
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}

	replica := NewEngine()
	if err := replica.Restore(&pw.Buffer); err != nil {
		t.Fatal(err)
	}
	entries, ok := entriesSince(t, w, idx)
	if !ok || len(entries) != 200 {
		t.Fatalf("log after the observed index %d: ok=%v, %d entries, want the 200 commits made beside the snapshot", idx, ok, len(entries))
	}
	for _, ent := range entries {
		if err := replica.ApplyEntry(ent); err != nil {
			t.Fatalf("ApplyEntry(%d): %v", ent.Index, err)
		}
	}
	var live, replayed bytes.Buffer
	if err := e.Snapshot(&live); err != nil {
		t.Fatal(err)
	}
	if err := replica.Snapshot(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("snapshot + replay diverges from the live engine (%d vs %d bytes)", replayed.Len(), live.Len())
	}
}

// TestSnapshotLockHoldIsCapture: at 20 000 rows the engine lock is held for a
// small part of a snapshot — the pointer copy — however long the encode takes.
func TestSnapshotLockHoldIsCapture(t *testing.T) {
	e, _ := taskLikeEngine(t, 20000)
	var held time.Duration
	e.SetSnapshotObserver(func(d time.Duration) { held = d })
	// The ratio is the claim; the best of a few tries keeps a scheduling
	// hiccup inside the short locked part from failing it.
	best := 1.0
	for try := 0; try < 5 && best > 1.0/8; try++ {
		t0 := time.Now()
		if err := e.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
		whole := time.Since(t0)
		t.Logf("snapshot %v, engine lock held %v", whole, held)
		best = min(best, float64(held)/float64(whole))
	}
	if best > 1.0/8 {
		t.Fatalf("engine lock held for %.0f%% of the snapshot, want at most 1/8", 100*best)
	}
}

// TestCheckpointPinned holds the checkpoint format to its bytes: a change to
// the layout, the cell codec or the order tables, index specs and rows are
// written in fails here, and must bump ckptVersion. Two tables, a composite
// ordered index beside a plain one, NULL, integer, float and text cells, and
// a nextKey above the largest stored key (the row holding it was deleted).
func TestCheckpointPinned(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE q (id INTEGER PRIMARY KEY AUTOINCREMENT, prio INTEGER, w REAL, note TEXT)")
	mustExec(t, e, "CREATE ORDERED INDEX q_prio ON q (prio, id)")
	mustExec(t, e, "CREATE INDEX q_note ON q (note)")
	mustExec(t, e, "INSERT INTO q (prio, w, note) VALUES (?, ?, ?)", Int64(5), Float64(0.5), Text("a"))
	mustExec(t, e, "INSERT INTO q (prio, w, note) VALUES (?, ?, ?)", Int64(-1), Null(), Null())
	mustExec(t, e, "INSERT INTO q (prio, w, note) VALUES (?, ?, ?)", Int64(7), Float64(2.0), Text("gone"))
	mustExec(t, e, "DELETE FROM q WHERE id = ?", Int64(3))
	mustExec(t, e, "CREATE TABLE tags (task INTEGER, tag TEXT)")
	mustExec(t, e, "INSERT INTO tags (task, tag) VALUES (?, ?)", Int64(1), Text("x"))
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != pinnedCheckpointHex {
		t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", got, pinnedCheckpointHex)
	}
	e2 := NewEngine()
	if err := e2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := e2.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("the pinned checkpoint does not restore to the same bytes")
	}
	if ins := mustExec(t, e2, "INSERT INTO q (prio) VALUES (?)", Int64(1)); ins.LastInsertID != 4 {
		t.Fatalf("restored engine allocated id %d, want 4", ins.LastInsertID)
	}
}

const pinnedCheckpointHex = "" +
	"140000003f0c0e2c6d696e6973716c20636865636b706f696e7402022f000000" +
	"2e26c9b1010171040269640003047072696f000001770100046e6f7465020008" +
	"02026964046e6f746501077072696f2c69640219000000fb5f10790204010201" +
	"0a02000000000000e03f03016104010401010000180000004f80800101047461" +
	"677302047461736b0000037461670200020000010700000071f8d19502020102" +
	"030178"

// FuzzRestoreSnapshot: a checkpoint file or a leader's bootstrap stream is
// bytes from outside. Restore may refuse them but must not panic, allocates
// in proportion to the bytes it was given, and an engine it did build
// snapshots to bytes that restore to the same bytes again. Each input is
// also tried with its records' CRCs recomputed, which lets mutations reach
// the layout checks past the CRC, and read one byte at a time, which must
// change neither the verdict nor the engine.
func FuzzRestoreSnapshot(f *testing.F) {
	e, _ := taskLikeEngine(f, 40)
	for i := 1; i <= 60; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = execSQL(e, "UPDATE tasks SET status = ?, result = ?, prio = ? WHERE id = ?", Int64(2), Float64(0.5), Null(), Int64(int64(i/2)))
		case 1:
			_, err = execSQL(e, "DELETE FROM tasks WHERE id = ?", Int64(int64(i/3)))
		case 2:
			_, err = execSQL(e, "INSERT INTO tasks (exp, prio) VALUES (?, ?)", Text("churn"), Int64(int64(i)))
		}
		if err != nil {
			f.Fatal(err)
		}
		if i%20 != 0 {
			continue
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		snap := buf.Bytes()
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
		f.Add(snap[:len(snap)-1])
		for _, at := range []int{len(snap) / 7, len(snap) / 3, len(snap) - 9} {
			flipped := bytes.Clone(snap)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add(gobEraCheckpoint(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e := NewEngine()
			err := e.Restore(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			// The densest allocation per byte is rows of NULL cells under as
			// many ordered indexes as a table may carry: a five-byte row of
			// four NULLs under sixteen costs ~720 bytes per byte. The constant
			// is the engine.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > restoreAllocPerByte*uint64(len(in))+64<<10 {
				t.Fatalf("restoring %d bytes allocated %d", len(in), grew)
			}
			// A stream that hands over one byte per read — a socket at its
			// slowest — reaches the same verdict and the same engine.
			slow := NewEngine()
			slowErr := slow.Restore(iotest.OneByteReader(bytes.NewReader(in)))
			if (err == nil) != (slowErr == nil) {
				t.Fatalf("whole read: %v; one byte per read: %v", err, slowErr)
			}
			if err != nil {
				continue
			}
			var once, twice, slowOnce bytes.Buffer
			if err := e.Snapshot(&once); err != nil {
				t.Fatalf("restored engine cannot snapshot: %v", err)
			}
			if err := slow.Snapshot(&slowOnce); err != nil || !bytes.Equal(once.Bytes(), slowOnce.Bytes()) {
				t.Fatalf("one byte per read restored an engine that snapshots differently (err %v)", err)
			}
			e2 := NewEngine()
			if err := e2.Restore(bytes.NewReader(once.Bytes())); err != nil {
				t.Fatalf("a restored engine's snapshot does not restore: %v", err)
			}
			if err := e2.Snapshot(&twice); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("snapshot -> restore -> snapshot changed the bytes (%d vs %d)", once.Len(), twice.Len())
			}
		}
	})
}

const restoreAllocPerByte = 1024

// resealed returns data with the CRC of every whole record it frames
// recomputed, leaving any tail that frames no whole record as it is.
func resealed(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; off+recordHeaderSize <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n > len(out)-off-recordHeaderSize {
			break
		}
		sealRecord(out[:off+recordHeaderSize+n], off)
		off += recordHeaderSize + n
	}
	return out
}

// TestSnapshotCutUnderInPlaceUpdates: UPDATEs write rows in place, so while a
// capture's writer is parked, rows it took under the lock but has not yet
// encoded are rewritten under it — an ordered-index key, an indexed TEXT key
// and a payload, some rows twice, some in a set-based write. The checkpoint
// must still hold every pre-update value: each write detached the row first.
// (TestSnapshotDoesNotBlockCommits cannot tell: replaying its idempotent
// UPDATEs over a torn cut repairs it.)
func TestSnapshotCutUnderInPlaceUpdates(t *testing.T) {
	e, _ := taskLikeEngine(t, 20000)
	var before bytes.Buffer
	if err := e.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	pw := &parkedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	snapDone := make(chan error, 1)
	go func() { snapDone <- e.Snapshot(pw) }()
	<-pw.entered // the first chunk is out; the rows below are captured, not encoded

	const lo, hi = 19000, 20000
	for id := lo; id <= hi; id += 10 {
		mustExec(t, e, "UPDATE tasks SET prio = ?, payload = ?, exp = ? WHERE id = ?", Int64(int64(1000+id)), Text("rewritten"), Text("moved"), Int64(int64(id)))
	}
	mustExec(t, e, "UPDATE tasks SET prio = ?, status = ? WHERE id = ?", Int64(-1), Int64(9), Int64(int64(hi)))
	ids := make([]Value, 0, 2*100)
	for id := lo + 1; id <= lo+100; id++ {
		ids = append(ids, Int64(int64(id)), Int64(int64(id)))
	}
	if _, err := e.TxLogged(func(tx *Tx) error {
		_, err := txExecRows(tx, "UPDATE tasks SET prio = ? WHERE id = ?", ids)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := mustExec(t, e, "SELECT prio, status FROM tasks WHERE id = ?", Int64(int64(hi))).Rows[0]; got[0].AsInt() != -1 || got[1].AsInt() != 9 {
		t.Fatalf("live row %d = %v, want the update applied", hi, got)
	}

	close(pw.release)
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
	restored := NewEngine()
	if err := restored.Restore(bytes.NewReader(pw.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{lo, lo + 1, hi} {
		row := mustExec(t, restored, "SELECT prio, payload, exp, status FROM tasks WHERE id = ?", Int64(int64(id))).Rows
		if len(row) != 1 || row[0][0].AsInt() != int64((id-1)%17) || row[0][2].AsText() != "exp" || row[0][3].AsInt() != 0 {
			t.Fatalf("restored row %d = %v, want its values from before the capture (prio %d, exp \"exp\", status 0)", id, row, (id-1)%17)
		}
	}
	if !bytes.Equal(pw.Bytes(), before.Bytes()) {
		t.Fatal("the checkpoint differs from the state at its capture")
	}
}
