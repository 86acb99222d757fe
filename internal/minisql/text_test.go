package minisql

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"osprey/internal/codec"
)

// The decoders carve text from an arena their stream owns (codec package
// comment). These tests pin what that must never cost: a decoded string
// aliasing the bytes it was read from, or one decode writing over an earlier
// decode's text. Each decodes, scribbles over the input, decodes 100 more
// through the same owner and checks every string decoded so far.

// textEntry is an entry whose text arguments name its index.
func textEntry(idx uint64) LogEntry {
	return LogEntry{Index: idx, Stmts: []Stmt{{SQL: "INSERT INTO t VALUES (?, ?, ?)", Args: []Value{
		Text(fmt.Sprintf("payload-%d", idx)), Int64(int64(idx)), Text(fmt.Sprintf("exp-%d-αβ", idx)),
	}}}}
}

// scribble overwrites b so that no string over it keeps its bytes.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// entryTexts is every text argument of e, in order.
func entryTexts(e LogEntry) []string {
	var out []string
	for _, s := range e.Stmts {
		for _, v := range s.Args {
			if v.Kind == KindText {
				out = append(out, v.Text)
			}
		}
	}
	return out
}

func checkTexts(t *testing.T, what string, got [][]string, want func(i int) []string) {
	t.Helper()
	for i, g := range got {
		if w := want(i); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s %d: text %q after later decodes, want %q", what, i, g, w)
		}
	}
}

func TestDecodedTextOutlivesInput(t *testing.T) {
	t.Run("follower stream", func(t *testing.T) {
		eng := NewEngine()
		var ent LogEntry
		var text codec.Text
		var got [][]string
		for i := uint64(1); i <= 101; i++ {
			rec := EncodeRecord(nil, textEntry(i))
			if _, err := eng.DecodeRecordInto(&ent, &text, rec); err != nil {
				t.Fatal(err)
			}
			got = append(got, entryTexts(ent))
			scribble(rec)
		}
		checkTexts(t, "entry", got, func(i int) []string { return entryTexts(textEntry(uint64(i + 1))) })
	})

	t.Run("disk log read-back", func(t *testing.T) {
		dir := t.TempDir()
		d, err := OpenDiskLogFS(nil, dir, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i := uint64(1); i <= 101; i++ {
			if err := d.AppendRecords(Record{Index: i, Data: EncodeRecord(nil, textEntry(i))}); err != nil {
				t.Fatal(err)
			}
		}
		fs := &keepReads{FS: OSFS}
		d.fs = fs
		out, ok, err := d.Entries(0)
		if err != nil || !ok || len(out) != 101 {
			t.Fatalf("Entries(0): %d entries, ok=%v err=%v", len(out), ok, err)
		}
		for _, b := range fs.reads {
			scribble(b)
		}
		got := make([][]string, len(out))
		for i, e := range out {
			got[i] = entryTexts(e)
		}
		checkTexts(t, "entry", got, func(i int) []string { return entryTexts(textEntry(uint64(i + 1))) })
	})

	t.Run("checkpoint", func(t *testing.T) {
		e := NewEngine()
		mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
		want := func(i int) []string { return []string{fmt.Sprintf("row-%d-%s", i, bytes.Repeat([]byte("x"), i))} }
		for i := range 101 {
			mustExec(t, e, "INSERT INTO t (v) VALUES (?)", Text(want(i)[0]))
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		tables, err := decodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		scribble(data)
		e2 := NewEngine()
		e2.tables = tables
		res := mustExec(t, e2, "SELECT v FROM t ORDER BY id")
		got := make([][]string, len(res.Rows))
		for i, row := range res.Rows {
			got[i] = []string{row[0].Text}
		}
		if len(got) != 101 {
			t.Fatalf("restored %d rows, want 101", len(got))
		}
		checkTexts(t, "row", got, want)
	})
}

// keepReads is the OS filesystem keeping every buffer ReadFile returns.
type keepReads struct {
	FS
	reads [][]byte
}

func (k *keepReads) ReadFile(name string) ([]byte, error) {
	b, err := os.ReadFile(name)
	k.reads = append(k.reads, b)
	return b, err
}
