package sql

import (
	"strconv"
	"strings"

	"mtcache/internal/types"
)

// Auto-parameterization: a zero-allocation tokenizer that rewrites the
// literals of a SELECT into positional parameters (@__p0, @__p1, ...) and
// renders the rest of the text in canonical token form. Shape-identical
// queries — same SQL modulo literal values, whitespace, comments and keyword
// case — normalize to the same key, so the engine's plan cache holds ONE
// plan per query shape and repeated literal variants skip parsing and
// optimization entirely (paper §5.1: cached plans "avoid the need for
// frequent reoptimization").
//
// The normalizer reads text by the lexer's own token rules (the scanning
// functions in lexer.go); its output is itself parseable SQL, so on a cache
// miss the engine parses the key (not the original text) and the resulting
// statement deparse — the plan-cache key — is canonical for the shape.
//
// A text that already spells @__pN parameters is what a cache forwards to
// the backend for the remote part of a shared plan: the shape, with the
// literals travelling in the named-parameter map. Such a text normalizes to
// its canonical form with zero extracted values, so the backend's front door
// hits its shape and plan caches instead of parsing every forwarded
// statement. Only the mix is refused — an explicit @__pN next to a literal
// of the text's own — because numbering the extracted literal from 0 would
// collide with the explicit name.

// autoParamPrefix starts every generated parameter name.
const autoParamPrefix = "__p"

// autoParamNames precomputes the common names so hot-path binding and key
// building never format strings.
var autoParamNames = func() [64]string {
	var a [64]string
	for i := range a {
		a[i] = autoParamPrefix + strconv.Itoa(i)
	}
	return a
}()

// AutoParamName returns the generated parameter name for literal index i.
func AutoParamName(i int) string {
	if i >= 0 && i < len(autoParamNames) {
		return autoParamNames[i]
	}
	return autoParamPrefix + strconv.Itoa(i)
}

// AutoParamIndex reports whether name is a generated auto-parameter name
// (__pN) and, if so, the literal index N.
func AutoParamIndex(name string) (int, bool) {
	if len(name) <= len(autoParamPrefix) || !strings.HasPrefix(name, autoParamPrefix) {
		return 0, false
	}
	n := 0
	for i := len(autoParamPrefix); i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 {
			return 0, false
		}
	}
	return n, true
}

// Normalizer holds the reusable buffers of one normalization worker. Zero
// value is ready to use; after warm-up, Normalize performs no allocations.
// Not safe for concurrent use — pool instances across goroutines.
type Normalizer struct {
	buf  []byte        // normalized text under construction
	args []types.Value // literal values in source order
	kw   []byte        // upper-cased ident scratch for keyword lookup

	pendingIdent string // ident delayed until the next token decides its case
	explicitAuto bool   // src itself spells an @__pN parameter
}

// Normalize rewrites src's literals to @__pN parameters. It returns the
// normalized key (valid until the next call on this Normalizer), the literal
// values in source order, and ok=false when src is not an
// auto-parameterizable SELECT (not a SELECT, lexically malformed, or mixing
// explicit @__pN parameters with literals). A false return is NOT an error —
// the caller falls back to the ordinary parse path, which reports any real
// syntax error against the original text.
func (n *Normalizer) Normalize(src string) (key []byte, args []types.Value, ok bool) {
	n.buf = n.buf[:0]
	n.args = n.args[:0]
	n.pendingIdent = ""
	n.explicitAuto = false
	pos := 0
	first := true
	for {
		pos = skipSpaceAndComments(src, pos)
		if pos >= len(src) {
			break
		}
		c := src[pos]
		switch {
		case c == '@':
			pos++
			start := pos
			pos = identEnd(src, pos)
			if pos == start {
				return nil, nil, false // lone @
			}
			name := src[start:pos]
			if _, isAuto := AutoParamIndex(name); isAuto {
				if len(n.args) > 0 {
					return nil, nil, false // would collide with an extracted literal
				}
				n.explicitAuto = true
			}
			n.flushIdent(false)
			n.sp()
			n.buf = append(n.buf, '@')
			n.buf = append(n.buf, name...)
		case isIdentStart(rune(c)):
			start := pos
			pos = identEnd(src, pos)
			id := src[start:pos]
			n.kw = appendUpperASCII(n.kw[:0], id)
			if keywords[string(n.kw)] {
				if first && string(n.kw) != "SELECT" {
					return nil, nil, false
				}
				n.flushIdent(false)
				n.sp()
				n.buf = append(n.buf, n.kw...)
			} else {
				if first {
					return nil, nil, false
				}
				// Delay: upper-cased iff the next token is '(' (a function
				// name, stored upper-cased by the parser).
				n.flushIdent(false)
				n.pendingIdent = id
			}
		case c == '[':
			end := strings.IndexByte(src[pos:], ']')
			if end < 0 {
				return nil, nil, false // unterminated [identifier
			}
			if first {
				return nil, nil, false
			}
			n.flushIdent(false)
			n.sp()
			n.buf = append(n.buf, src[pos:pos+end+1]...)
			pos += end + 1
		case c >= '0' && c <= '9' || c == '.' && pos+1 < len(src) && isDigit(src[pos+1]):
			if first {
				return nil, nil, false
			}
			start := pos
			pos = numberEnd(src, pos)
			text := src[start:pos]
			var v types.Value
			if strings.ContainsAny(text, ".eE") {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, nil, false
				}
				v = types.NewFloat(f)
			} else {
				i, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, nil, false
				}
				v = types.NewInt(i)
			}
			n.flushIdent(false)
			if !n.emitParam(v) {
				return nil, nil, false
			}
		case c == '\'':
			if first {
				return nil, nil, false
			}
			s, end, strOK := scanString(src, pos)
			if !strOK {
				return nil, nil, false
			}
			pos = end
			n.flushIdent(false)
			if !n.emitParam(types.NewString(s)) {
				return nil, nil, false
			}
		default:
			op, end, opOK := scanOperator(src, pos)
			if !opOK {
				return nil, nil, false
			}
			if first {
				return nil, nil, false
			}
			pos = end
			n.flushIdent(op == "(")
			n.sp()
			n.buf = append(n.buf, op...)
		}
		first = false
	}
	if first {
		return nil, nil, false // empty input
	}
	n.flushIdent(false)
	return n.buf, n.args, true
}

// sp separates tokens with a single space.
func (n *Normalizer) sp() {
	if len(n.buf) > 0 {
		n.buf = append(n.buf, ' ')
	}
}

// flushIdent emits the delayed identifier, upper-cased when it turned out to
// be a function name (asFunc: the next token is an opening parenthesis).
func (n *Normalizer) flushIdent(asFunc bool) {
	if n.pendingIdent == "" {
		return
	}
	n.sp()
	if asFunc {
		n.buf = appendUpperASCII(n.buf, n.pendingIdent)
	} else {
		n.buf = append(n.buf, n.pendingIdent...)
	}
	n.pendingIdent = ""
}

// emitParam records one literal value and writes its @__pN placeholder. It
// returns false — the caller must bail — when src spelled an @__pN itself,
// which the generated name could collide with.
func (n *Normalizer) emitParam(v types.Value) bool {
	if n.explicitAuto {
		return false
	}
	name := AutoParamName(len(n.args))
	n.args = append(n.args, v)
	n.sp()
	n.buf = append(n.buf, '@')
	n.buf = append(n.buf, name...)
	return true
}

// appendUpperASCII is the dialect's one case mapping, for keywords and
// function names alike: a–z fold to A–Z and every other byte — non-ASCII
// letters, invalid UTF-8 — stays as written, so what the lexer accepted
// byte for byte deparses to text it accepts again.
func appendUpperASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// upperASCII is appendUpperASCII for a string; s itself when it has nothing
// to fold.
func upperASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'a' && c <= 'z' {
			return string(appendUpperASCII(make([]byte, 0, len(s)), s))
		}
	}
	return s
}
