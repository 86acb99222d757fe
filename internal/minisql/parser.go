package minisql

import (
	"fmt"
	"strconv"
	"strings"
)

type parser struct {
	toks      []token
	pos       int
	params    int
	sawSpread bool
}

// parse returns the parsed statement, the number of fixed `?` parameters it
// references (executors validate the argument count up front), and whether
// the statement contains a spread `IN (?...)` list, which absorbs every
// argument beyond the fixed count.
func parse(sql string) (any, int, bool, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, 0, false, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w (in %q)", err, compactSQL(sql))
	}
	// Allow a single trailing semicolon.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.pos++
	}
	if p.peek().kind != tokEOF {
		return nil, 0, false, fmt.Errorf("minisql: trailing tokens at %q (in %q)", p.peek().text, compactSQL(sql))
	}
	return stmt, p.params, p.sawSpread, nil
}

func compactSQL(sql string) string {
	s := strings.Join(strings.Fields(sql), " ")
	if len(s) > 80 {
		s = s[:80] + "..."
	}
	return s
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("minisql: expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.peek().kind == tokPunct && p.peek().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("minisql: expected %q, found %q", s, p.peek().text)
	}
	return nil
}

// ident accepts an identifier; unreserved keywords are not allowed, which is
// fine for our internal schema (all names are lower-case identifiers).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("minisql: expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) statement() (any, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("minisql: expected statement, found %q", t.text)
	}
	switch t.text {
	case "CREATE":
		return p.createStmt()
	case "INSERT":
		return p.insertStmt()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	}
	return nil, fmt.Errorf("minisql: unsupported statement %q", t.text)
}

func (p *parser) createStmt() (any, error) {
	p.pos++ // CREATE
	if p.acceptKeyword("ORDERED") {
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.createIndex(true)
	}
	if p.acceptKeyword("INDEX") {
		return p.createIndex(false)
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := createTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	var def ColumnDef
	name, err := p.ident()
	if err != nil {
		return def, err
	}
	def.Name = name
	t := p.next()
	if t.kind != tokKeyword {
		return def, fmt.Errorf("minisql: expected column type, found %q", t.text)
	}
	switch t.text {
	case "INTEGER":
		def.Type = TypeInteger
	case "TEXT":
		def.Type = TypeText
	default:
		return def, fmt.Errorf("minisql: unsupported column type %q", t.text)
	}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return def, err
			}
			def.PrimaryKey = true
		case p.acceptKeyword("AUTOINCREMENT"):
			def.AutoInc = true
		default:
			return def, nil
		}
	}
}

func (p *parser) createIndex(ordered bool) (any, error) {
	st := createIndexStmt{Ordered: ordered}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(st.Cols) > 2 {
		return nil, fmt.Errorf("minisql: composite indexes support at most 2 columns, got %d", len(st.Cols))
	}
	st.Name = name
	st.Table = tbl
	return st, nil
}

func (p *parser) insertStmt() (any, error) {
	p.pos++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	st := insertStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptPunct("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) selectStmt() (any, error) {
	p.pos++ // SELECT
	st := selectStmt{}
	if p.acceptKeyword("COUNT") {
		for _, s := range []string{"(", "*", ")"} {
			if err := p.expectPunct(s); err != nil {
				return nil, err
			}
		}
		st.Count = true
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptKeyword("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			key := orderKey{Col: col}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, key)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.primaryExpr()
		if err != nil {
			return nil, err
		}
		st.Limit = e
	}
	return st, nil
}

func (p *parser) updateStmt() (any, error) {
	p.pos++ // UPDATE
	st := updateStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, assign{Col: col, Val: e})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) deleteStmt() (any, error) {
	p.pos++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	st := deleteStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptKeyword("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

// expr parses an AND chain of `=` and IN comparisons, the whole WHERE
// grammar; a VALUES row or SET clause uses it for a lone primary.
func (p *parser) expr() (expr, error) {
	left, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		left = &binExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) cmpExpr() (expr, error) {
	left, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptPunct("=") {
		right, err := p.primaryExpr()
		if err != nil {
			return nil, err
		}
		return &binExpr{Op: "=", L: left, R: right}, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.peek().kind == tokParam && p.peek().text == "?..." {
			p.pos++
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if p.sawSpread {
				return nil, fmt.Errorf("minisql: at most one IN (?...) spread per statement")
			}
			p.sawSpread = true
			return &inExpr{Target: left, Spread: true, SpreadStart: p.params}, nil
		}
		var list []expr
		for {
			e, err := p.primaryExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &inExpr{Target: left, List: list}, nil
	}
	return left, nil
}

func (p *parser) primaryExpr() (expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokParam:
		if t.text == "?..." {
			return nil, fmt.Errorf("minisql: spread parameter ?... is only allowed as the sole member of an IN list")
		}
		p.pos++
		e := &paramExpr{Idx: p.params, AfterSpread: p.sawSpread}
		p.params++
		return e, nil
	case t.kind == tokNumber:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("minisql: bad number %q", t.text)
		}
		return &litExpr{V: Int64(n)}, nil
	case t.kind == tokString:
		p.pos++
		return &litExpr{V: Text(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return &litExpr{V: Null()}, nil
	case t.kind == tokIdent:
		p.pos++
		return &colRef{Name: t.text, Pos: -1}, nil
	}
	return nil, fmt.Errorf("minisql: unexpected token %q in expression", t.text)
}
