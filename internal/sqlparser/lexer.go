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
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
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
	// lit is the token's 1-based position among the statement's
	// literals (numbers and strings); 0 for any other token.
	lit int
	// value is set by the parser on a literal it read as a value — a
	// WHERE comparand, an INSERT value, an UPDATE SET value. Any other
	// literal (a LIMIT count, an ORDER BY ordinal) is structure.
	value bool
}

// Lexed is one statement lexed once: its tokens, a fingerprint of its
// shape and its literals. The fingerprint hashes every token's kind and
// text, except that a literal contributes only its kind (int, float or
// string), so statements that differ only in their literals share it. A
// statement cache keys on Fingerprint, confirms with Matches and fills a
// built template from Literals; a miss calls Parse. Lex hands out pooled
// values: call Release when done, after which the Literals slice may not
// be used (a Shape is a copy and may).
type Lexed struct {
	src    string
	pos    int
	tokens []token
	nlits  int
	fp     uint64
	lits   []Expr // Literals' buffer
}

// lexedPool recycles lexers with their token slices across statements.
// The AST keeps token texts — substrings of the statement — and never the
// slice, so a slice is free for reuse as soon as its statement is done.
var lexedPool = sync.Pool{New: func() any { return new(Lexed) }}

// Lex splits one statement into tokens; keywords stay as idents (the
// parser matches them case-insensitively).
func Lex(src string) (*Lexed, error) {
	l := lexedPool.Get().(*Lexed)
	if err := l.lex(src); err != nil {
		l.Release()
		return nil, err
	}
	return l, nil
}

// Release drops the references to the statement and returns the lexer to
// the pool.
func (l *Lexed) Release() {
	clear(l.tokens)
	clear(l.lits)
	l.src = ""
	lexedPool.Put(l)
}

// Fingerprint is the hash of the statement's shape: equal for statements
// that differ only in their literals' values, and — rarely — for others,
// so a cache must confirm a hit with Matches.
func (l *Lexed) Fingerprint() uint64 { return l.fp }

// Literals decodes the statement's literals in text order: the slice an
// Expr's Slot indexes (from 1). Its error is the parser's for the first
// literal that does not decode (an integer out of range). The slice is
// the lexer's and is valid until Release.
func (l *Lexed) Literals() ([]Expr, error) {
	l.lits = l.lits[:0]
	for i := range l.tokens {
		if l.tokens[i].lit == 0 {
			continue
		}
		e, err := literal(l.tokens, i)
		if err != nil {
			return nil, err
		}
		l.lits = append(l.lits, e)
	}
	return l.lits, nil
}

// Shape is a parsed statement's skeleton: its token kinds and texts, with
// each value literal reduced to its kind. Two statements of one shape
// differ only in their value literals; a LIMIT count or an ORDER BY
// ordinal is structure, so LIMIT 5 and LIMIT 6 are two shapes.
type Shape struct{ toks []token }

// Shape copies the skeleton of the statement Parse accepted. It keeps
// token texts, so it keeps the statement's text alive.
func (l *Lexed) Shape() *Shape {
	toks := make([]token, len(l.tokens))
	for i, t := range l.tokens {
		toks[i] = token{kind: t.kind, text: t.text, value: t.value}
	}
	return &Shape{toks: toks}
}

// Matches reports whether the statement has shape s: the same tokens,
// token by token, where a value literal of s matches any literal of the
// same kind. It never trusts the fingerprint alone.
func (l *Lexed) Matches(s *Shape) bool {
	if len(l.tokens) != len(s.toks) {
		return false
	}
	for i := range l.tokens {
		t, u := &l.tokens[i], &s.toks[i]
		if t.kind != u.kind {
			return false
		}
		if u.value {
			if t.kind == tokNumber && isFloat(t.text) != isFloat(u.text) {
				return false
			}
			continue
		}
		if t.text != u.text {
			return false
		}
	}
	return true
}

// FNV-1a, folded over the tokens as they are lexed.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (l *Lexed) mix(b byte) { l.fp = (l.fp ^ uint64(b)) * fnvPrime }

// emit appends a token and folds it into the fingerprint: its kind, then
// its text — or, for a literal, only whether a number is a float.
func (l *Lexed) emit(kind tokenKind, text string, pos int) {
	t := token{kind: kind, text: text, pos: pos}
	l.mix(byte(kind))
	switch kind {
	case tokNumber, tokString:
		l.nlits++
		t.lit = l.nlits
		if kind == tokNumber && isFloat(text) {
			l.mix('.')
		}
	default:
		for i := 0; i < len(text); i++ {
			l.mix(text[i])
		}
	}
	l.tokens = append(l.tokens, t)
}

func (l *Lexed) lex(src string) error {
	l.src, l.pos, l.nlits, l.fp = src, 0, 0, fnvOffset
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
		default:
			if r, _ := l.rune(); isIdentStart(r) {
				l.lexIdent()
			} else if err := l.lexPunct(); err != nil {
				return err
			}
		}
	}
	l.emit(tokEOF, "", l.pos)
	return nil
}

// rune decodes the character at the current position: identifiers may
// hold any Unicode letter, written in UTF-8.
func (l *Lexed) rune() (rune, int) {
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func isDigit(r rune) bool      { return r >= '0' && r <= '9' }
func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentRune(r rune) bool  { return isIdentStart(r) || isDigit(r) }
func isFloat(number string) bool {
	return strings.IndexByte(number, '.') >= 0
}

// lexString scans a quoted string. Its text is a substring of the
// statement unless it holds an escaped quote.
func (l *Lexed) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	from := l.pos
	var b []byte // the text so far; nil until the first escape
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		// '' escapes a quote.
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			b = append(b, l.src[from:l.pos+1]...)
			l.pos += 2
			from = l.pos
			continue
		}
		text := l.src[from:l.pos]
		if b != nil {
			text = string(append(b, text...))
		}
		l.pos++
		l.emit(tokString, text, start)
		return nil
	}
	return fmt.Errorf("sql: unterminated string at offset %d", start)
}

// lexNumber scans [-]digits[.digits]: exactly one optional decimal point,
// digits required on both sides of it, and a leading '-' only with digits
// attached. Malformed shapes (bare '-', '1.', '1.2.3') are errors at the
// token's position rather than tokens a later ParseFloat call chokes on.
func (l *Lexed) lexNumber() error {
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
	l.emit(tokNumber, l.src[start:l.pos], start)
	return nil
}

func (l *Lexed) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		r, n := l.rune()
		if !isIdentRune(r) {
			break
		}
		l.pos += n
	}
	l.emit(tokIdent, l.src[start:l.pos], start)
}

func (l *Lexed) lexPunct() error {
	start := l.pos
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		l.pos += 2
		l.emit(tokPunct, two, start)
		return nil
	}
	switch l.src[l.pos] {
	case '(', ')', ',', '.', '=', '<', '>', '*':
		l.pos++
		l.emit(tokPunct, l.src[start:l.pos], start)
		return nil
	}
	// Report the character the input holds: a byte that starts no valid
	// UTF-8 sequence is shown as that byte.
	if r, n := l.rune(); r != utf8.RuneError || n > 1 {
		return fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
	}
	return fmt.Errorf("sql: unexpected byte %q at offset %d", l.src[start:start+1], start)
}

// literal decodes literal token i. Its error is worded and placed as the
// parser's errors are: after the literal, at the next token's offset.
func literal(toks []token, i int) (Expr, error) {
	t := toks[i]
	e := Expr{Slot: t.lit}
	if t.kind == tokString {
		e.Kind, e.Str = ExprString, t.text
		return e, nil
	}
	var err error
	if isFloat(t.text) {
		e.Kind = ExprFloat
		e.Float, err = strconv.ParseFloat(t.text, 64)
	} else {
		e.Kind = ExprInt
		e.Int, err = strconv.ParseInt(t.text, 10, 64)
	}
	if err != nil {
		return Expr{}, errAt(toks[i+1].pos, "bad number %q", t.text)
	}
	return e, nil
}

// errAt is the parser's error form: a message and the offset it is near.
func errAt(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), pos)
}
