package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokParam // @name
	tokOp    // operators and punctuation
)

// token is one lexical token.
type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers as written
	pos  int    // byte offset in the input, for error messages
}

// keywords is the reserved-word set. Identifiers matching these (case
// insensitively) lex as tokKeyword with upper-cased text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "TOP": true, "LIMIT": true,
	"DISTINCT": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"IN": true, "LIKE": true, "BETWEEN": true, "IS": true, "NULL": true,
	"TRUE": true, "FALSE": true, "JOIN": true, "INNER": true, "LEFT": true,
	"OUTER": true, "CROSS": true, "ON": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "UNIQUE": true,
	"VIEW": true, "CACHED": true, "MATERIALIZED": true, "PROCEDURE": true,
	"PROC": true, "EXEC": true, "EXECUTE": true, "DROP": true,
	"PRIMARY": true, "KEY": true, "DEFAULT": true, "BEGIN": true, "END": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true,
	"WITH": true, "FRESHNESS": true, "EXPLAIN": true, "ANALYZE": true,
}

// lexer tokenizes SQL text.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the whole input up front; the parser then walks the slice.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	l.pos = skipSpaceAndComments(l.src, l.pos)
	start := l.pos
	if start >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[start]
	switch {
	case c == '@':
		l.pos = identEnd(l.src, start+1)
		if l.pos == start+1 {
			return token{}, fmt.Errorf("lex: lone @ at offset %d", start)
		}
		return token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start}, nil
	case isIdentStart(rune(c)):
		l.pos = identEnd(l.src, start)
		id := l.src[start:l.pos]
		up := upperASCII(id)
		if keywords[up] {
			return token{kind: tokKeyword, text: up, pos: start}, nil
		}
		return token{kind: tokIdent, text: id, pos: start}, nil
	case c == '[': // SQL Server style quoted identifier
		end := strings.IndexByte(l.src[start:], ']')
		if end < 0 {
			return token{}, fmt.Errorf("lex: unterminated [identifier at offset %d", start)
		}
		l.pos = start + end + 1
		return token{kind: tokIdent, text: l.src[start+1 : start+end], pos: start}, nil
	case isDigit(c) || c == '.' && start+1 < len(l.src) && isDigit(l.src[start+1]):
		l.pos = numberEnd(l.src, start)
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		s, end, ok := scanString(l.src, start)
		if !ok {
			return token{}, fmt.Errorf("lex: unterminated string at offset %d", start)
		}
		l.pos = end
		return token{kind: tokString, text: s, pos: start}, nil
	default:
		op, end, ok := scanOperator(l.src, start)
		if !ok {
			return token{}, fmt.Errorf("lex: unexpected character %q at offset %d", c, start)
		}
		l.pos = end
		return token{kind: tokOp, text: op, pos: start}, nil
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '#'
}

func isIdentCont(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '#' || r == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// twoCharOps are operators that must be matched greedily.
var twoCharOps = []string{"<>", "<=", ">=", "!=", "=="}

// The token rules. Each takes the text and a position and returns where the
// token ends; lexer.next and Normalizer.Normalize are both built on them, so
// a text and its shape key cannot tokenize differently.

// skipSpaceAndComments returns the position of the next token at or after
// pos. A -- comment runs to the end of the line, an unterminated /* to the
// end of the text.
func skipSpaceAndComments(src string, pos int) int {
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
		case c == '-' && pos+1 < len(src) && src[pos+1] == '-':
			nl := strings.IndexByte(src[pos:], '\n')
			if nl < 0 {
				return len(src)
			}
			pos += nl + 1
		case c == '/' && pos+1 < len(src) && src[pos+1] == '*':
			end := strings.Index(src[pos+2:], "*/")
			if end < 0 {
				return len(src)
			}
			pos += end + 4
		default:
			return pos
		}
	}
	return pos
}

// identEnd returns the end of the identifier characters starting at pos.
func identEnd(src string, pos int) int {
	for pos < len(src) && isIdentCont(rune(src[pos])) {
		pos++
	}
	return pos
}

// numberEnd returns the end of the number starting at pos: digits with at
// most one dot, then an optional exponent.
func numberEnd(src string, pos int) int {
	seenDot := false
	for pos < len(src) {
		c := src[pos]
		if isDigit(c) {
			pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			pos++
			continue
		}
		if (c == 'e' || c == 'E') && pos+1 < len(src) &&
			(isDigit(src[pos+1]) || src[pos+1] == '-' || src[pos+1] == '+') {
			pos += 2
			for pos < len(src) && isDigit(src[pos]) {
				pos++
			}
			break
		}
		break
	}
	return pos
}

// scanString reads the quoted string starting at pos: it returns the value
// with doubled quotes undone and the position after the closing quote, or
// false when the string is unterminated. Strings without doubled quotes are
// returned as a zero-copy slice of src.
func scanString(src string, pos int) (string, int, bool) {
	pos++ // opening quote
	start := pos
	for pos < len(src) {
		c := src[pos]
		if c != '\'' {
			pos++
			continue
		}
		if pos+1 < len(src) && src[pos+1] == '\'' {
			// Doubled quote: fall back to a building scan (rare).
			return scanStringSlow(src, start)
		}
		return src[start:pos], pos + 1, true
	}
	return "", 0, false // unterminated
}

func scanStringSlow(src string, start int) (string, int, bool) {
	var b strings.Builder
	pos := start
	for pos < len(src) {
		c := src[pos]
		if c == '\'' {
			if pos+1 < len(src) && src[pos+1] == '\'' {
				b.WriteByte('\'')
				pos += 2
				continue
			}
			return b.String(), pos + 1, true
		}
		b.WriteByte(c)
		pos++
	}
	return "", 0, false
}

// scanOperator reads the operator or punctuation at pos, returning its
// canonical text (!= reads as <>, == as =) and end, or false for a character
// that starts no token.
func scanOperator(src string, pos int) (string, int, bool) {
	rest := src[pos:]
	for _, op := range twoCharOps {
		if strings.HasPrefix(rest, op) {
			text := op
			switch op {
			case "!=":
				text = "<>"
			case "==":
				text = "="
			}
			return text, pos + 2, true
		}
	}
	switch c := src[pos]; c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';':
		return singleCharOps[c], pos + 1, true
	}
	return "", 0, false
}

// singleCharOps interns one-byte operator strings so scanOperator never
// allocates.
var singleCharOps = func() [128]string {
	var a [128]string
	for _, c := range []byte{'=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';'} {
		a[c] = string([]byte{c})
	}
	return a
}()
