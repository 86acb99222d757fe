// Package minisql is a small embedded relational database engine supporting
// the SQL subset the OSPREY EMEWS task database issues, and nothing more:
// CREATE TABLE [IF NOT EXISTS] with INTEGER and TEXT columns (PRIMARY KEY,
// AUTOINCREMENT), CREATE [ORDERED] INDEX [IF NOT EXISTS] on one or two
// columns, INSERT (an optional column list, one or more VALUES rows), SELECT
// (named columns or COUNT(*), ORDER BY ... ASC|DESC, LIMIT), UPDATE ... SET
// and DELETE, where a WHERE clause is an AND of `=` comparisons and
// `IN (...)` / `IN (?...)` lists over columns, integer and string literals,
// NULL and `?` parameters. Transactions are Go closures (Engine.TxLogged),
// never SQL text.
//
// Statements are compiled once (plancache.go). Engine.Prepare parses a text
// and returns a *Prepared handle; a transaction runs it with Value arguments
// — Tx.Run for a write, Tx.RunRows for a set-based UPDATE, Tx.Query to stream
// a read's rows into a callback, Tx.Count for a COUNT(*) — with no boxing, no
// re-planning and no materialised Result. A handle binds to the schema at its
// first run in each schema epoch (table, column positions, WHERE conjuncts,
// the index they probe); CREATE TABLE, CREATE INDEX and Restore start a
// new epoch, and a stale handle re-binds at its next run. ApplyEntry resolves
// each logged statement's text to a handle through the engine's text index —
// prepared handles pinned, ad-hoc texts bounded — so a follower runs the
// handle its leader's code prepared, through the same executor with the same
// checks.
//
// It stands in for the resource-local PostgreSQL instance the paper uses: the
// task-queue semantics of OSPREY are plain relational operations, and this
// engine executes the identical SQL access paths against in-memory tables
// with hash indexes and an undo-log transaction model.
package minisql

import "strconv"

// Kind enumerates the runtime type of a Value.
type Kind uint8

// Value kinds. The numbers are the cell byte of every log record and
// checkpoint, so they never move; 2 was a float cell, which no build of core
// wrote, and now decodes as corrupt.
const (
	KindNull Kind = 0
	KindInt  Kind = 1
	KindText Kind = 3
)

// Value is a dynamically typed SQL value.
type Value struct {
	Kind Kind
	Int  int64
	Text string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int64 wraps an int64 as a Value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Text wraps a string as a Value.
func Text(s string) Value { return Value{Kind: KindText, Text: s} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the value coerced to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.Int
	case KindText:
		n, _ := strconv.ParseInt(v.Text, 10, 64)
		return n
	}
	return 0
}

// AsText returns the value coerced to a string.
func (v Value) AsText() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindText:
		return v.Text
	}
	return ""
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.Kind == KindNull {
		return "NULL"
	}
	return v.AsText()
}

// Compare orders two values: -1 if v < o, 0 if equal, 1 if v > o.
// NULL sorts before everything; comparing text with a number compares the
// number's text form.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == KindNull && o.Kind == KindNull:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.Kind == KindText || o.Kind == KindText {
		a, b := v.AsText(), o.AsText()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	switch {
	case v.Int < o.Int:
		return -1
	case v.Int > o.Int:
		return 1
	default:
		return 0
	}
}

// hashKey is a Value's identity on the hash side of an index: comparable, so
// it keys a map directly and no index touch builds a string. Values that are
// equal as SQL index keys have equal hashKeys and no others do: 1 and '1' do
// not share a key.
type hashKey struct {
	kind Kind
	num  int64 // 0 for NULL and text
	text string
}

// key returns v's canonical hash-index key.
func (v Value) key() hashKey {
	switch v.Kind {
	case KindNull:
		return hashKey{}
	case KindInt:
		return hashKey{kind: KindInt, num: v.Int}
	default:
		return hashKey{kind: KindText, text: v.Text}
	}
}
