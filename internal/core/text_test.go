package core

import (
	"context"
	"fmt"
	"testing"

	"osprey/internal/codec"
	"osprey/internal/minisql"
)

// TestSubmitBatchRecordDecodeAllocs: a follower decodes a 50-task submit
// record into its kept entry and text arena in at most one allocation — the
// record's text is one arena chunk, not one string per field.
func TestSubmitBatchRecordDecodeAllocs(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var rec []byte
	db.Engine().SetCommitHook(func(stmts []minisql.Stmt) (uint64, error) {
		rec = minisql.EncodeRecord(nil, minisql.LogEntry{Index: 1, Stmts: stmts})
		return 1, nil
	})
	payloads, keys := make([]string, 50), make([]string, 50)
	for i := range payloads {
		payloads[i] = fmt.Sprintf(`{"x": [%d.25, 0.5, 0.75]}`, i)
		keys[i] = fmt.Sprintf("cc-0011223344556677-%d", i)
	}
	if _, err := db.SubmitBatch(context.Background(), "exp", 1, payloads, nil, keys); err != nil {
		t.Fatal(err)
	}
	var ent minisql.LogEntry
	var text codec.Text
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.Engine().DecodeRecordInto(&ent, &text, rec); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("a 50-task submit record into a kept entry: %v allocs, want at most 1", allocs)
	}
}
