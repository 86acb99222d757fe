package minisql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokParam // ?
	tokPunct // ( ) , ; * =
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased
	pos  int
}

var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "INDEX": true, "ORDERED": true, "ON": true, "IF": true,
	"NOT": true, "EXISTS": true, "PRIMARY": true, "KEY": true,
	"AUTOINCREMENT": true, "INTEGER": true, "TEXT": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"SELECT": true, "FROM": true, "WHERE": true, "ORDER": true, "BY": true,
	"ASC": true, "DESC": true, "LIMIT": true, "COUNT": true, "AND": true,
	"IN": true, "UPDATE": true, "SET": true, "DELETE": true, "NULL": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '?':
			// "?..." is the spread parameter: an IN list whose width is decided
			// by the argument count at execution time, so one plan serves every
			// batch size.
			if strings.HasPrefix(l.src[l.pos:], "?...") {
				l.emit(tokParam, "?...")
				l.pos += 4
				break
			}
			l.emit(tokParam, "?")
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		case strings.ContainsRune("(),;*=", rune(c)):
			l.emit(tokPunct, string(c))
			l.pos++
		default:
			return nil, fmt.Errorf("minisql: unexpected character %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "")
	return l.toks, nil
}

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// Doubled quote is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("minisql: unterminated string literal at %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(word), pos: start})
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || isDigit(c) || unicode.IsLetter(rune(c))
}
