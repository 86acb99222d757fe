package minisql

// ColType is the declared type of a table column.
type ColType uint8

// Supported column types.
const (
	TypeInteger ColType = iota
	TypeReal
	TypeText
)

func (t ColType) String() string {
	switch t {
	case TypeInteger:
		return "INTEGER"
	case TypeReal:
		return "REAL"
	default:
		return "TEXT"
	}
}

// ColumnDef describes one column of a CREATE TABLE statement.
type ColumnDef struct {
	Name       string
	Type       ColType
	PrimaryKey bool
	AutoInc    bool
}

type createTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

type createIndexStmt struct {
	Name        string
	IfNotExists bool
	Table       string
	// Cols is the key column list: one column, or two for a composite index
	// whose entries sort by (col1, col2). A composite ordered index bounds the
	// equal-key run length of the top-n scan by the cardinality of the pair
	// instead of the first column alone.
	Cols []string
	// Ordered requests a sorted index (CREATE ORDERED INDEX): equality
	// lookups on a single-column index still hit its hash side, and ORDER BY
	// <col> ... LIMIT n reads the top-n directly off the sorted side instead
	// of scan+sort.
	Ordered bool
}

type dropTableStmt struct {
	Name     string
	IfExists bool
}

type insertStmt struct {
	Table string
	Cols  []string
	Rows  [][]expr
}

type selectCol struct {
	Star bool
	Name string // column name ("" for *)
}

type orderKey struct {
	Col  string
	Desc bool
}

type selectStmt struct {
	Count   bool // SELECT COUNT(*): the one aggregate, and Cols is empty
	Cols    []selectCol
	Table   string
	Where   expr // nil when absent
	OrderBy []orderKey
	Limit   expr // nil when absent
}

type assign struct {
	Col string
	Val expr
}

type updateStmt struct {
	Table string
	Set   []assign
	Where expr
}

type deleteStmt struct {
	Table string
	Where expr
}

// expr is a SQL expression evaluated against a row. The parser's trees are
// never evaluated: a Prepared handle evaluates the copy it bound to a table
// (bindExpr).
type expr interface {
	eval(ev *evalCtx) (Value, error)
}

// evalCtx carries the current row, positional arguments, and the width of the
// statement's spread parameter (0 when the statement has none): the number of
// trailing arguments the `IN (?...)` list absorbed at execution time.
type evalCtx struct {
	row     []Value
	args    []Value
	spreadN int
}

// colRef is a column reference. Bound (bindExpr), Pos is the column's
// position in Table's rows, or -1 when Table has no such column — an error
// only if the reference is evaluated, as it was when columns were looked up
// by name per row.
type colRef struct {
	Name  string
	Table string
	Pos   int
}

type litExpr struct{ V Value }

// paramExpr is one `?` placeholder. Idx counts fixed parameters only; a
// parameter textually after a spread shifts right by the spread's runtime
// width, so `... IN (?...) ... LIMIT ?` binds the LIMIT to the last argument
// no matter how many ids the IN list consumed.
type paramExpr struct {
	Idx         int
	AfterSpread bool
}

type binExpr struct {
	Op string // = or AND
	L  expr
	R  expr
}

// inExpr is `target IN (...)`. Spread marks the width-oblivious form
// `IN (?...)`: List is nil and the members are args[SpreadStart :
// SpreadStart+spreadN], bound at execution time. One parsed plan therefore
// serves every batch width, where an explicit `?, ?, ...` list costs a
// distinct statement text (and plan-cache entry) per width.
type inExpr struct {
	Target      expr
	List        []expr
	Spread      bool
	SpreadStart int
}
