// Package minisql is a small embedded relational database engine supporting
// the SQL subset the OSPREY EMEWS task database issues, and nothing more:
// CREATE TABLE / [ORDERED] INDEX, DROP TABLE, INSERT (one or more VALUES
// rows), SELECT (columns or COUNT(*), ORDER BY ... ASC|DESC, LIMIT), UPDATE
// and DELETE, where a WHERE clause is an AND of `=` comparisons and
// `IN (...)` / `IN (?...)` lists over columns, literals and `?` parameters.
// Transactions are Go closures (Engine.TxLogged), never SQL text.
//
// It stands in for the resource-local PostgreSQL instance the paper uses: the
// task-queue semantics of OSPREY are plain relational operations, and this
// engine executes the identical SQL access paths against in-memory tables
// with hash indexes and an undo-log transaction model.
package minisql

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// Value kinds. Integers and floats compare numerically with coercion.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
)

// Value is a dynamically typed SQL value.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Text  string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int64 wraps an int64 as a Value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Float64 wraps a float64 as a Value.
func Float64(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// Text wraps a string as a Value.
func Text(s string) Value { return Value{Kind: KindText, Text: s} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the value coerced to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.Int
	case KindFloat:
		return int64(v.Float)
	case KindText:
		n, _ := strconv.ParseInt(v.Text, 10, 64)
		return n
	}
	return 0
}

// AsFloat returns the value coerced to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int)
	case KindFloat:
		return v.Float
	case KindText:
		f, _ := strconv.ParseFloat(v.Text, 64)
		return f
	}
	return 0
}

// AsText returns the value coerced to a string.
func (v Value) AsText() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
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
// NULL sorts before everything; numeric kinds compare with coercion;
// comparing text with a number compares the number's text form.
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
	if v.Kind == KindInt && o.Kind == KindInt {
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		default:
			return 0
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// hashKey is a Value's identity on the hash side of an index: comparable, so
// it keys a map directly and no index touch builds a string. Values that are
// equal as SQL index keys have equal hashKeys and no others do: 1 and 1.0
// share a key, 1 and '1' do not.
type hashKey struct {
	kind Kind
	num  uint64 // the int64, or the float's bits; 0 for NULL and text
	text string
}

// key returns v's canonical hash-index key.
func (v Value) key() hashKey {
	switch v.Kind {
	case KindNull:
		return hashKey{}
	case KindInt:
		return hashKey{kind: KindInt, num: uint64(v.Int)}
	case KindFloat:
		f := v.Float
		// Integral floats hash like ints so 1 and 1.0 collide as SQL expects
		// (-0.0 is 0); a float outside int64 has no int to collide with.
		if f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f) {
			return hashKey{kind: KindInt, num: uint64(int64(f))}
		}
		if f != f {
			f = math.NaN() // every NaN payload is the one key
		}
		return hashKey{kind: KindFloat, num: math.Float64bits(f)}
	default:
		return hashKey{kind: KindText, text: v.Text}
	}
}

// toValue converts a Go value supplied as a query argument into a Value.
func toValue(arg any) (Value, error) {
	switch a := arg.(type) {
	case nil:
		return Null(), nil
	case int:
		return Int64(int64(a)), nil
	case int32:
		return Int64(int64(a)), nil
	case int64:
		return Int64(a), nil
	case uint:
		return Int64(int64(a)), nil
	case float32:
		return Float64(float64(a)), nil
	case float64:
		return Float64(a), nil
	case bool:
		if a {
			return Int64(1), nil
		}
		return Int64(0), nil
	case string:
		return Text(a), nil
	case []byte:
		return Text(string(a)), nil
	case Value:
		return a, nil
	default:
		return Value{}, fmt.Errorf("minisql: unsupported argument type %T", arg)
	}
}
