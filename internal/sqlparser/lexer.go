// Package sqlparser implements a small SQL dialect over the MM-DBMS:
// CREATE TABLE / CREATE INDEX, INSERT, SELECT (with one JOIN, WHERE
// conjunctions, DISTINCT, aggregates with GROUP BY, ORDER BY with
// ASC/DESC and output ordinals, LIMIT), UPDATE, DELETE, and EXPLAIN. The
// parser produces a plain AST; the mmdb package executes it through the
// same planner as the fluent query API.
//
// The dialect's one extension is the REF(table, column, value) expression,
// which resolves to a tuple pointer at execution time — the §2.1
// foreign-key substitution needs a way to write pointers in text.
package sqlparser

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) , . = < > <= >= != <> *
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lexerPool recycles lexers with their token slices across Parse calls.
// The AST keeps token texts — substrings of the statement — and never the
// slice, so a slice is free for reuse as soon as its statement is parsed.
var lexerPool = sync.Pool{New: func() any { return new(lexer) }}

// release drops the references to the statement and returns the lexer to
// the pool.
func (l *lexer) release() {
	clear(l.tokens)
	l.src = ""
	lexerPool.Put(l)
}

// lex splits src into l.tokens; keywords stay as idents (the parser
// matches them case-insensitively).
func (l *lexer) lex(src string) error {
	l.src, l.pos = src, 0
	// Presize: SQL text runs at four bytes or more a token.
	if want := len(src)/4 + 4; cap(l.tokens) < want {
		l.tokens = make([]token, 0, want)
	}
	l.tokens = l.tokens[:0]
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return err
			}
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isDigit(rune(c)) || c == '-':
			if err := l.lexNumber(); err != nil {
				return err
			}
		case isIdentStart(rune(c)):
			l.lexIdent()
		default:
			if err := l.lexPunct(); err != nil {
				return err
			}
		}
	}
	l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
	return nil
}

func isDigit(r rune) bool      { return r >= '0' && r <= '9' }
func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentRune(r rune) bool  { return isIdentStart(r) || isDigit(r) }

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string at offset %d", start)
}

// lexNumber scans [-]digits[.digits]: exactly one optional decimal point,
// digits required on both sides of it, and a leading '-' only with digits
// attached. Malformed shapes (bare '-', '1.', '1.2.3') are errors at the
// token's position rather than tokens a later ParseFloat call chokes on.
func (l *lexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	intDigits := 0
	for l.pos < len(l.src) && isDigit(rune(l.src[l.pos])) {
		l.pos++
		intDigits++
	}
	if intDigits == 0 {
		return fmt.Errorf("sql: bare '-' is not a number at offset %d", start)
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		fracDigits := 0
		for l.pos < len(l.src) && isDigit(rune(l.src[l.pos])) {
			l.pos++
			fracDigits++
		}
		if fracDigits == 0 {
			return fmt.Errorf("sql: number %q has a trailing decimal point at offset %d", l.src[start:l.pos], start)
		}
		if l.pos < len(l.src) && l.src[l.pos] == '.' {
			return fmt.Errorf("sql: number %q has more than one decimal point at offset %d", l.src[start:l.pos+1], start)
		}
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentRune(rune(l.src[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexPunct() error {
	start := l.pos
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		l.pos += 2
		l.tokens = append(l.tokens, token{kind: tokPunct, text: two, pos: start})
		return nil
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', ',', '.', '=', '<', '>', '*':
		l.pos++
		l.tokens = append(l.tokens, token{kind: tokPunct, text: string(c), pos: start})
		return nil
	default:
		return fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
	}
}
