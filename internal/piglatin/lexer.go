// Package piglatin implements the query language front end: a lexer and
// recursive-descent parser for a Pig Latin dialect covering the statements
// the paper's workloads need — LOAD, FOREACH...GENERATE (including nested
// blocks), FILTER, JOIN, GROUP/COGROUP, DISTINCT, UNION, ORDER, LIMIT, and
// STORE. The parser produces an AST; internal/logical turns it into a
// logical plan.
package piglatin

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString // 'single quoted'
	tokPosCol // $3
	tokPunct  // operators and punctuation
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokPosCol:
		return "positional column"
	case tokPunct:
		return "punctuation"
	default:
		return "token"
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// Error is a parse error with position information.
type Error struct {
	Line int
	Col  int
	Msg  string
}

// Error renders the error with its line and column.
func (e *Error) Error() string {
	return fmt.Sprintf("piglatin: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	tk := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		tk.kind = tokEOF
		return tk, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		tk.kind = tokIdent
		tk.text = l.src[start:l.pos]
		return tk, nil
	case c >= '0' && c <= '9':
		return l.lexNumber(tk)
	case c == '$':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
			l.advance()
		}
		if start == l.pos {
			// A lone $ introduces a template variable name like $data.
			for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
				l.advance()
			}
			if start == l.pos {
				return tk, l.errf("expected digits or name after $")
			}
			tk.kind = tokIdent
			tk.text = "$" + l.src[start:l.pos]
			return tk, nil
		}
		tk.kind = tokPosCol
		tk.text = l.src[start:l.pos]
		return tk, nil
	case c == '\'':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return tk, l.errf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '\\' && l.pos < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\'':
					sb.WriteByte('\'')
				case '\\':
					sb.WriteByte('\\')
				default:
					sb.WriteByte(esc)
				}
				continue
			}
			if ch == '\'' {
				break
			}
			sb.WriteByte(ch)
		}
		tk.kind = tokString
		tk.text = sb.String()
		return tk, nil
	default:
		return l.lexPunct(tk)
	}
}

func (l *lexer) lexNumber(tk token) (token, error) {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.peekByte()
		if c >= '0' && c <= '9' {
			l.advance()
			continue
		}
		if c == '.' && !isFloat && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			isFloat = true
			l.advance()
			continue
		}
		break
	}
	tk.text = l.src[start:l.pos]
	if isFloat {
		tk.kind = tokFloat
	} else {
		tk.kind = tokInt
	}
	return tk, nil
}

var twoBytePunct = map[string]bool{"==": true, "!=": true, "<=": true, ">=": true}

func (l *lexer) lexPunct(tk token) (token, error) {
	c := l.advance()
	tk.kind = tokPunct
	tk.text = string(c)
	if l.pos < len(l.src) {
		two := tk.text + string(l.peekByte())
		if twoBytePunct[two] {
			l.advance()
			tk.text = two
			return tk, nil
		}
	}
	switch c {
	case '=', ';', ',', '(', ')', '{', '}', '.', ':', '<', '>', '+', '-', '*', '/', '%', '#':
		return tk, nil
	default:
		if c == '!' {
			return tk, l.errf("unexpected '!' (use != for inequality)")
		}
		return tk, l.errf("unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
