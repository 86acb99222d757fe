package minisql

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"osprey/internal/codec"
)

func testEntry(idx uint64) LogEntry {
	return LogEntry{
		Index: idx,
		Stmts: []Stmt{
			{
				SQL: "INSERT INTO t VALUES (?, ?, ?, ?)",
				Args: []Value{
					{Kind: KindInt, Int: int64(idx)},
					{Kind: KindInt, Int: 1 << 40},
					{Kind: KindText, Text: "payload-αβ"},
					{Kind: KindNull},
				},
			},
			{SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []Value{
				{Kind: KindInt, Int: -42},
				{Kind: KindText, Text: ""},
			}},
		},
	}
}

func testRecord(idx uint64) Record {
	return Record{Index: idx, Data: EncodeRecord(nil, testEntry(idx))}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	for _, e := range []LogEntry{
		testEntry(1),
		{Index: 7, Stmts: []Stmt{{SQL: "DELETE FROM t"}}},
		{Index: 1 << 40, Stmts: nil},
	} {
		buf := EncodeRecord([]byte("prefix"), e)[len("prefix"):]
		got, size, err := DecodeRecord(append(buf, "next record"...))
		if err != nil || size != len(buf) {
			t.Fatalf("decode entry %d: %d of %d bytes, err %v", e.Index, size, len(buf), err)
		}
		if !reflect.DeepEqual(normEntry(got), normEntry(e)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

// framePayload wraps a hand-built payload in a valid record header, so a
// test reaches decodeEntry's own checks instead of stopping at the CRC.
func framePayload(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestDecodeRejectsHostileStmtCount and TestDecodeRejectsHostileArgCount pin
// the two count guards in decodeEntry: a count larger than the bytes left to
// back it is corruption, rejected before it sizes a make. Without the guards
// these inputs ask for terabyte slices.
func TestDecodeRejectsHostileStmtCount(t *testing.T) {
	payload := binary.AppendUvarint(nil, 9)        // index
	payload = binary.AppendUvarint(payload, 1<<40) // statement count
	payload = append(payload, 0, 0)                // two bytes cannot hold 2^40 statements
	if _, _, err := DecodeRecord(framePayload(payload)); !errors.Is(err, errCorrupt) {
		t.Fatalf("statement count 2^40 over 2 bytes: err = %v, want errCorrupt", err)
	}
	// The guard is a bound, not a ban: the densest legal input (statements
	// with empty SQL and no arguments, two bytes each) still decodes.
	payload = binary.AppendUvarint(binary.AppendUvarint(nil, 9), 2)
	payload = append(payload, 0, 0, 0, 0)
	if e, _, err := DecodeRecord(framePayload(payload)); err != nil || len(e.Stmts) != 2 {
		t.Fatalf("two empty statements: %+v, %v", e, err)
	}
}

func TestDecodeRejectsHostileArgCount(t *testing.T) {
	payload := binary.AppendUvarint(nil, 9) // index
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendUvarint(payload, 1) // SQL length
	payload = append(payload, 'X')
	payload = binary.AppendUvarint(payload, 1<<40) // argument count
	payload = append(payload, byte(KindNull))      // one byte cannot hold 2^40 arguments
	if _, _, err := DecodeRecord(framePayload(payload)); !errors.Is(err, errCorrupt) {
		t.Fatalf("argument count 2^40 over 1 byte: err = %v, want errCorrupt", err)
	}
}

// TestDecodeRecordAllocationBounded: a count the guards above let through —
// one the record's bytes could back — still sizes nothing. A CRC-valid 1 MiB
// record claiming a million statements (or one statement claiming a million
// arguments) whose bytes turn to garbage after a hundred fails having
// allocated about what it decoded, not 48 bytes per claimed statement.
func TestDecodeRecordAllocationBounded(t *testing.T) {
	const size = 1 << 20
	stmt := func(p []byte, nArgs uint64) []byte {
		p = append(binary.AppendUvarint(p, 1), 'X')
		return binary.AppendUvarint(p, nArgs)
	}
	stmts := binary.AppendUvarint(binary.AppendUvarint(nil, 9), 1<<20)
	for range 100 {
		stmts = binary.AppendVarint(append(stmt(stmts, 1), byte(KindInt)), 7)
	}
	args := stmt(binary.AppendUvarint(binary.AppendUvarint(nil, 9), 1), 1<<20)
	for range 100 {
		args = binary.AppendVarint(append(args, byte(KindInt)), 7)
	}
	for name, payload := range map[string][]byte{"statements": stmts, "arguments": args} {
		for len(payload) < size+64 { // enough bytes to pass the count guards
			payload = append(payload, 0xFF) // a uvarint that never ends
		}
		rec := framePayload(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeRecord(rec)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: err = %v, want errCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(rec)) {
			t.Fatalf("%s: decoding a %d-byte record allocated %d bytes", name, len(rec), grew)
		}
	}
}

// TestDecodeRecordIntoReusesAndInterns: decoding into a kept entry allocates
// nothing for an entry without text arguments, and SQL text the engine
// prepared is the pinned handle's own string; text it did not is a copy.
func TestDecodeRecordIntoReusesAndInterns(t *testing.T) {
	eng := NewEngine()
	const pinned = "UPDATE t SET a = ? WHERE b = ?"
	h, err := eng.Prepare(pinned)
	if err != nil {
		t.Fatal(err)
	}
	rec := EncodeRecord(nil, LogEntry{Index: 5, Stmts: []Stmt{
		{SQL: pinned, Args: []Value{Int64(1), Int64(2), Int64(3), Int64(4)}},
		{SQL: "DELETE FROM t"},
	}})
	var e LogEntry
	var text codec.Text
	if _, err := eng.DecodeRecordInto(&e, &text, rec); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(e.Stmts[0].SQL) != unsafe.StringData(h.sql) {
		t.Fatal("prepared SQL text decoded as a copy, not the pinned handle's string")
	}
	if e.Stmts[1].SQL != "DELETE FROM t" {
		t.Fatalf("ad-hoc SQL decoded as %q", e.Stmts[1].SQL)
	}
	rec = EncodeRecord(nil, LogEntry{Index: 6, Stmts: []Stmt{{SQL: pinned, Args: []Value{Int64(1), Null()}}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.DecodeRecordInto(&e, &text, rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding into a kept entry: %v allocs, want 0", allocs)
	}
}

// parentSegment is seg-00000000000000000041.wal as DiskLog.Append wrote it at
// the commit before the float cell kind went (entries 41-43 of pinnedEntries,
// no fsync, closed cleanly). The on-disk format is a promise to existing data
// directories; this is the promise in bytes.
const parentSegment = "" +
	"6400000086809a4829014c494e5345525420494e544f2065715f7461736b7320" +
	"2865715f7461736b5f747970652c206a736f6e5f6f75742c2074696d655f6372" +
	"6561746564292056414c55455320283f2c203f2c203f2903010e030a7b227822" +
	"3a20312e357d0180dac5d10cdb000000b4caa0372a033e494e5345525420494e" +
	"544f2065715f6578705f69645f7461736b7320286578705f69642c2065715f74" +
	"61736b5f6964292056414c55455320283f2c203f290203056578702d31011838" +
	"494e5345525420494e544f2065715f7461736b5f74616773202865715f746173" +
	"6b5f69642c20746167292056414c55455320283f2c203f290201180306746167" +
	"2dceb1455550444154452065715f7461736b7320534554206a736f6e5f696e20" +
	"3d203f2c20776f726b65725f706f6f6c203d203f2057484552452065715f7461" +
	"736b5f6964203d203f0300030001051800000058c141492b011444454c455445" +
	"2046524f4d2065715f6f75745f7100"

// floatSegment is the segment parentSegment pinned while minisql had a float
// cell kind: the same entries but for a float (1696118400.25) as entry 41's
// third argument. No build of core wrote a float, and kind 2 now decodes as
// corrupt (TestFloatCellIsCorrupt).
const floatSegment = "" +
	"67000000f7cb5cef29014c494e5345525420494e544f2065715f7461736b7320" +
	"2865715f7461736b5f747970652c206a736f6e5f6f75742c2074696d655f6372" +
	"6561746564292056414c55455320283f2c203f2c203f2903010e030a7b227822" +
	"3a20312e357d02000010a02d46d941db000000b4caa0372a033e494e53455254" +
	"20494e544f2065715f6578705f69645f7461736b7320286578705f69642c2065" +
	"715f7461736b5f6964292056414c55455320283f2c203f290203056578702d31" +
	"011838494e5345525420494e544f2065715f7461736b5f74616773202865715f" +
	"7461736b5f69642c20746167292056414c55455320283f2c203f290201180306" +
	"7461672dceb1455550444154452065715f7461736b7320534554206a736f6e5f" +
	"696e203d203f2c20776f726b65725f706f6f6c203d203f205748455245206571" +
	"5f7461736b5f6964203d203f0300030001051800000058c141492b011444454c" +
	"4554452046524f4d2065715f6f75745f7100"

var pinnedEntries = []LogEntry{
	{Index: 41, Stmts: []Stmt{{SQL: "INSERT INTO eq_tasks (eq_task_type, json_out, time_created) VALUES (?, ?, ?)",
		Args: []Value{Int64(7), Text(`{"x": 1.5}`), Int64(1696118400)}}}},
	{Index: 42, Stmts: []Stmt{
		{SQL: "INSERT INTO eq_exp_id_tasks (exp_id, eq_task_id) VALUES (?, ?)", Args: []Value{Text("exp-1"), Int64(12)}},
		{SQL: "INSERT INTO eq_task_tags (eq_task_id, tag) VALUES (?, ?)", Args: []Value{Int64(12), Text("tag-α")}},
		{SQL: "UPDATE eq_tasks SET json_in = ?, worker_pool = ? WHERE eq_task_id = ?", Args: []Value{Null(), Text(""), Int64(-3)}},
	}},
	{Index: 43, Stmts: []Stmt{{SQL: "DELETE FROM eq_out_q"}}},
}

func TestDiskLogParentSegmentPinned(t *testing.T) {
	seg, err := hex.DecodeString(parentSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 41), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Stats(); st.First != 41 || st.Last != 43 || st.DiskBytes != int64(len(seg)) {
		t.Fatalf("scan of the parent's segment: %+v, want 41..43 with all %d bytes kept", st, len(seg))
	}
	got, ok, err := d.Entries(40)
	if err != nil || !ok || len(got) != len(pinnedEntries) {
		t.Fatalf("Entries(40): %d entries, ok=%v err=%v", len(got), ok, err)
	}
	var again []byte
	for i, e := range got {
		if !reflect.DeepEqual(normEntry(e), normEntry(pinnedEntries[i])) {
			t.Fatalf("entry %d decoded as\n %+v\nwant\n %+v", e.Index, e, pinnedEntries[i])
		}
		again = EncodeRecord(again, e)
	}
	if !bytes.Equal(again, seg) {
		t.Fatal("today's encoder no longer writes the parent's bytes for the same entries")
	}
	// The log continues where the parent left off.
	if err := d.Append(testEntry(44)); err != nil {
		t.Fatalf("append after the parent's tail: %v", err)
	}
}

// floatCellRecord is a record whose one statement carries a float argument as
// the cell codec wrote one while minisql had a float kind: the Kind byte 2,
// then the value's 8 little-endian IEEE bits.
func floatCellRecord(idx uint64, f float64) []byte {
	payload := binary.AppendUvarint(nil, idx)
	payload = binary.AppendUvarint(payload, 1) // statements
	payload = codec.AppendString(payload, "UPDATE q SET w = ? WHERE id = ?")
	payload = binary.AppendUvarint(payload, 2) // arguments
	payload = binary.LittleEndian.AppendUint64(append(payload, 2), math.Float64bits(f))
	payload = codec.AppendVarint(append(payload, byte(KindInt)), 7)
	return framePayload(payload)
}

// TestFloatCellIsCorrupt: a cell of kind 2, once a float, is no cell the
// codec knows. The segment the parent pinned fails at its first record, which
// holds one, and so does a hand-made record; a DiskLog scan would cut a
// segment there as at a torn tail.
func TestFloatCellIsCorrupt(t *testing.T) {
	seg, err := hex.DecodeString(floatSegment)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRecord(seg); !errors.Is(err, errCorrupt) {
		t.Fatalf("first record of the float-era segment: err %v, want errCorrupt", err)
	}
	if _, _, err := DecodeRecord(floatCellRecord(9, 1.5)); !errors.Is(err, errCorrupt) {
		t.Fatalf("hand-made kind-2 cell: err %v, want errCorrupt", err)
	}
	// The same record with an integer cell in its place decodes.
	ok := EncodeRecord(nil, LogEntry{Index: 9, Stmts: []Stmt{{SQL: "UPDATE q SET w = ? WHERE id = ?",
		Args: []Value{Int64(2), Int64(7)}}}})
	if _, _, err := DecodeRecord(ok); err != nil {
		t.Fatalf("control record: %v", err)
	}
}

// FuzzDecodeRecord fuzzes the one decoder of bytes that come off a disk or a
// replication socket. It must never panic, never size a slice past the bytes
// it was given (so never past MaxRecordSize), and whatever it accepts must
// survive a round trip as a value — not as the input bytes: binary.Uvarint
// accepts non-minimal varints the encoder never writes.
func FuzzDecodeRecord(f *testing.F) {
	// One Stmt carrying three argument rows, as Tx.ExecRows logs it.
	rows := LogEntry{Index: 3, Stmts: []Stmt{{SQL: "UPDATE q SET p = ? WHERE id = ?",
		Args: []Value{Int64(7), Int64(1), Int64(-2), Int64(1 << 40), Int64(0), Int64(3)}}}}
	seeds := append([]LogEntry{testEntry(1), {Index: 1 << 40}, rows}, pinnedEntries...)
	recs := [][]byte{floatCellRecord(2, 1.5)} // a kind-2 cell: corrupt
	for _, e := range seeds {
		recs = append(recs, EncodeRecord(nil, e))
	}
	for _, rec := range recs {
		f.Add(rec)
		f.Add(rec[recordHeaderSize:])
		f.Add(rec[:len(rec)/2])
		f.Add(rec[:recordHeaderSize])
		for _, bit := range []int{3, 40, 8*recordHeaderSize + 9, 8*len(rec) - 1} {
			flipped := append([]byte(nil), rec...)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add(framePayload([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0xFF, 0xFF, 0x03}))
	// The differential half decodes through an engine that prepared the
	// seeds' texts, into one entry primed by a longer one, the way a follower
	// does: whatever the reused entry holds must equal the fresh decode.
	eng := NewEngine()
	var long LogEntry
	for _, e := range seeds {
		for _, s := range e.Stmts {
			eng.Prepare(s.SQL) // "X" does not parse, and stays ad-hoc text
			long.Stmts = append(long.Stmts, s, s)
		}
	}
	primer := EncodeRecord(nil, long)
	f.Fuzz(func(t *testing.T, data []byte) {
		var reused LogEntry
		var text codec.Text
		// As a record, and as a payload behind a valid header: a mutated
		// record almost never passes its CRC, so the second form is what
		// lets the fuzzer reach the structure checks.
		// The primer on both sides leaves the fuzzer's input a longer entry
		// to overwrite, and follows whatever a failed decode left behind.
		for _, rec := range [][]byte{primer, data, framePayload(data), primer} {
			e, size, err := DecodeRecord(rec)
			sizeInto, errInto := eng.DecodeRecordInto(&reused, &text, rec)
			if (err == nil) != (errInto == nil) || size != sizeInto {
				t.Fatalf("fresh decode: %d bytes, %v; into a reused entry: %d bytes, %v", size, err, sizeInto, errInto)
			}
			if err == nil && !bytes.Equal(EncodeRecord(nil, reused), EncodeRecord(nil, e)) {
				t.Fatalf("decoded into a reused entry\n %+v\nfresh\n %+v", reused, e)
			}
			if cap(e.Stmts) > len(rec) {
				t.Fatalf("%d bytes sized a %d-statement slice", len(rec), cap(e.Stmts))
			}
			for _, s := range e.Stmts {
				if cap(s.Args) > len(rec) {
					t.Fatalf("%d bytes sized a %d-argument slice", len(rec), cap(s.Args))
				}
			}
			if err != nil {
				continue
			}
			if size < recordHeaderSize || size > len(rec) {
				t.Fatalf("accepted record claims %d of %d bytes", size, len(rec))
			}
			// Values compared through their canonical bytes: DeepEqual
			// would call a NaN argument unequal to itself.
			canon := EncodeRecord(nil, e)
			e2, _, err := DecodeRecord(canon)
			if err != nil || !bytes.Equal(EncodeRecord(nil, e2), canon) {
				t.Fatalf("accepted entry does not round-trip: %v\n first %+v\nsecond %+v", err, e, e2)
			}
		}
	})
}

// normEntry maps nil and empty slices to a comparable form: the codec does
// not distinguish them, and neither does replay.
func normEntry(e LogEntry) LogEntry {
	if len(e.Stmts) == 0 {
		e.Stmts = nil
	}
	for i := range e.Stmts {
		if len(e.Stmts[i].Args) == 0 {
			e.Stmts[i].Args = nil
		}
	}
	return e
}

func TestDiskLogAppendReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.LastIndex(); got != 20 {
		t.Fatalf("LastIndex after reopen = %d, want 20", got)
	}
	out, ok, err := d2.Entries(0)
	if err != nil || !ok {
		t.Fatalf("Entries(0): ok=%v err=%v", ok, err)
	}
	if len(out) != 20 {
		t.Fatalf("got %d entries, want 20", len(out))
	}
	for i, e := range out {
		if !reflect.DeepEqual(normEntry(e), normEntry(testEntry(uint64(i+1)))) {
			t.Fatalf("entry %d corrupted on reopen", i+1)
		}
	}
	// The reopened log is anchored: a gap must be rejected.
	if err := d2.Append(testEntry(25)); err == nil {
		t.Fatal("gap append accepted")
	}
	if err := d2.Append(testEntry(21)); err != nil {
		t.Fatalf("contiguous append after reopen: %v", err)
	}
}

func TestDiskLogSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 256, false) // tiny segments force rolling
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	out, ok, err := d.Entries(0)
	if err != nil || !ok || len(out) != n {
		t.Fatalf("Entries(0) after roll: n=%d ok=%v err=%v", len(out), ok, err)
	}
	// Partial reads start mid-segment-chain.
	out, ok, err = d.Entries(n / 2)
	if err != nil || !ok || len(out) != n/2 {
		t.Fatalf("Entries(%d): n=%d ok=%v err=%v", n/2, len(out), ok, err)
	}
	if out[0].Index != n/2+1 {
		t.Fatalf("first entry after %d is %d", n/2, out[0].Index)
	}
}

func TestDiskLogCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip bytes near the end of the single segment: the last record's CRC
	// breaks, earlier records stay intact.
	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 5; i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer d2.Close()
	last := d2.LastIndex()
	if last != 9 {
		t.Fatalf("LastIndex after tail corruption = %d, want 9", last)
	}
	out, ok, err := d2.Entries(0)
	if err != nil || !ok || len(out) != 9 {
		t.Fatalf("entries after truncation: n=%d ok=%v err=%v", len(out), ok, err)
	}
	// The log keeps working past the truncation point.
	if err := d2.Append(testEntry(10)); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
}

func TestDiskLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn write: half a record's worth of extra garbage at the tail.
	seg := segmentPath(dir, 1)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9, 9, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.LastIndex(); got != 5 {
		t.Fatalf("LastIndex after torn tail = %d, want 5", got)
	}
	if err := d2.Append(testEntry(6)); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
}

func TestDiskLogTruncateTo(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 256, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()
	dropped := d.TruncateTo(n / 2)
	after := d.Stats()
	if dropped == 0 {
		t.Fatal("TruncateTo dropped nothing")
	}
	if after.Segments >= before.Segments {
		t.Fatalf("segments not reduced: %d -> %d", before.Segments, after.Segments)
	}
	// Entries past the truncation point must still read back completely.
	out, ok, err := d.Entries(n / 2)
	if err != nil || !ok || len(out) != n/2 {
		t.Fatalf("Entries(%d) after truncate: n=%d ok=%v err=%v", n/2, len(out), ok, err)
	}
	// A position truncated away must report unavailable, not silently skip.
	if _, ok, _ := d.Entries(0); ok {
		t.Fatal("Entries(0) still ok after truncation")
	}
}

func TestDiskLogReset(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := uint64(1); i <= 5; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Reset(1000); err != nil {
		t.Fatal(err)
	}
	if got := d.LastIndex(); got != 1000 {
		t.Fatalf("LastIndex after Reset = %d, want 1000", got)
	}
	if err := d.Append(testEntry(999)); err == nil {
		t.Fatal("append below reset base accepted")
	}
	if err := d.Append(testEntry(1001)); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
	out, ok, err := d.Entries(1000)
	if err != nil || !ok || len(out) != 1 || out[0].Index != 1001 {
		t.Fatalf("Entries after Reset: %v ok=%v err=%v", out, ok, err)
	}
}

func TestDiskLogWaitDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var observed bool
	d.SetFsyncObserver(func(time.Duration) { observed = true })
	for i := uint64(1); i <= 3; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WaitDurable(3, 5*time.Second); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	st := d.Stats()
	if st.Synced < 3 {
		t.Fatalf("synced=%d after WaitDurable(3)", st.Synced)
	}
	if st.Fsyncs == 0 || !observed {
		t.Fatalf("no fsync recorded (fsyncs=%d observed=%v)", st.Fsyncs, observed)
	}
}

func TestDiskLogIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatalf("open with foreign file present: %v", err)
	}
	defer d.Close()
	if err := d.Append(testEntry(1)); err != nil {
		t.Fatal(err)
	}
}

// TestDiskLogEntriesToleratesTornActiveTail: a read racing a concurrent
// append can see a partially written record beyond the flushed prefix of the
// active segment. Entries must bound its scan to the bytes recorded under
// the lock instead of reporting corruption for the torn tail.
func TestDiskLogEntriesToleratesTornActiveTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLogFS(nil, dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := uint64(1); i <= 5; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the in-flight record: bytes past the tracked segment size.
	d.mu.Lock()
	path := d.segs[len(d.segs)-1].path
	d.mu.Unlock()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, ok, err := d.Entries(0)
	if err != nil || !ok {
		t.Fatalf("Entries with torn active tail: ok=%v err=%v", ok, err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d entries, want 5", len(out))
	}
}
