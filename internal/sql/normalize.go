package sql

import (
	"strconv"
	"strings"

	"mtcache/internal/types"
)

// Auto-parameterization: a zero-allocation tokenizer that rewrites the
// literals of a SELECT, an EXEC or a write into positional parameters (@__p0,
// @__p1, ...) and renders the rest of the text in canonical token form.
// Shape-identical statements — same SQL modulo literal values, whitespace,
// comments and keyword case — normalize to the same key, so the engine holds
// ONE parsed statement per shape (and for a SELECT or a write one plan), and
// repeated literal variants skip parsing and optimization entirely (paper
// §5.1: cached plans "avoid the need for frequent reoptimization").
//
// An EXEC's arguments are literals or parameters, nothing else, and the
// parser folds a sign into the number after it ("-5" is one literal). So in
// an EXEC a "-" where an argument starts — after the procedure name, ",",
// "(" or "=" — takes the number after it into one extracted value; followed
// by anything else the text is not normalized at all, and the parser sees it
// as written. Nor is a literal that starts an argument and is followed by
// "=": the parser reads "5 = x" as one expression, but would read its
// parameterized form "@__p0 = x" as an argument named __p0.
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
// auto-parameterizable SELECT, EXEC, INSERT, UPDATE or DELETE (another
// statement, lexically malformed, mixing explicit @__pN parameters with
// literals, or an EXEC sign the parser would not fold). A false return is NOT
// an error — the caller falls back to the ordinary parse path, which reports
// any real syntax error against the original text.
func (n *Normalizer) Normalize(src string) (key []byte, args []types.Value, ok bool) {
	n.buf = n.buf[:0]
	n.args = n.args[:0]
	n.pendingIdent = ""
	n.explicitAuto = false
	call := false   // src is an EXEC
	target := false // from INSERT to VALUES or SELECT: a name before "(" is a table
	// EXEC only: the next token starts an argument (so a sign folds into
	// it), and the last token was a literal that started one.
	nextArg, lastArgLiteral := false, false
	tokens, pos := 0, 0
	for ; ; tokens++ {
		pos = skipSpaceAndComments(src, pos)
		if pos >= len(src) {
			break
		}
		argStart, argLiteral := nextArg, lastArgLiteral
		nextArg, lastArgLiteral = false, false
		if call && tokens == 1 {
			// The procedure name, as written: a plain or bracketed identifier.
			end := n.procName(src, pos)
			if end < 0 {
				return nil, nil, false
			}
			n.sp()
			n.buf = append(n.buf, src[pos:end]...)
			pos = end
			nextArg = true
			continue
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
				if tokens == 0 {
					switch string(n.kw) {
					case "SELECT", "INSERT", "UPDATE", "DELETE":
					case "EXEC", "EXECUTE":
						call = true
					default:
						return nil, nil, false
					}
				}
				target = string(n.kw) == "INSERT" || target && string(n.kw) != "VALUES" && string(n.kw) != "SELECT"
				n.flushIdent(false)
				n.sp()
				n.buf = append(n.buf, n.kw...)
			} else {
				if tokens == 0 {
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
			if tokens == 0 {
				return nil, nil, false
			}
			n.flushIdent(false)
			n.sp()
			n.buf = append(n.buf, src[pos:pos+end+1]...)
			pos += end + 1
		case numberStart(src, pos):
			if tokens == 0 {
				return nil, nil, false
			}
			v, end, numOK := number(src, pos)
			if !numOK {
				return nil, nil, false
			}
			pos = end
			n.flushIdent(false)
			if !n.emitParam(v) {
				return nil, nil, false
			}
			lastArgLiteral = argStart
		case c == '\'':
			if tokens == 0 {
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
			lastArgLiteral = argStart
		default:
			op, end, opOK := scanOperator(src, pos)
			if !opOK {
				return nil, nil, false
			}
			if tokens == 0 {
				return nil, nil, false
			}
			pos = end
			if op == "=" && argLiteral {
				// "5 = x" is one argument, but "@__p0 = x" would name one.
				return nil, nil, false
			}
			if op == "-" && argStart {
				// A signed number is one argument value, as the parser folds it.
				num := skipSpaceAndComments(src, pos)
				if num >= len(src) || !numberStart(src, num) {
					return nil, nil, false
				}
				v, end, numOK := number(src, num)
				if !numOK || !n.emitParam(negate(v)) {
					return nil, nil, false
				}
				pos = end
				lastArgLiteral = true
				continue
			}
			n.flushIdent(op == "(" && !target)
			n.sp()
			n.buf = append(n.buf, op...)
			nextArg = call && (op == "," || op == "(" || op == "=")
		}
	}
	if tokens == 0 || call && tokens < 2 {
		return nil, nil, false // empty input, or EXEC without a procedure
	}
	n.flushIdent(false)
	return n.buf, n.args, true
}

// procName returns the end of the procedure name at src[pos:] — a plain
// identifier that is not a keyword, or a bracketed one — or -1.
func (n *Normalizer) procName(src string, pos int) int {
	if src[pos] == '[' {
		if end := strings.IndexByte(src[pos:], ']'); end >= 0 {
			return pos + end + 1
		}
		return -1
	}
	if !isIdentStart(rune(src[pos])) {
		return -1
	}
	end := identEnd(src, pos)
	n.kw = appendUpperASCII(n.kw[:0], src[pos:end])
	if keywords[string(n.kw)] {
		return -1
	}
	return end
}

// numberStart reports whether a numeric literal starts at src[pos].
func numberStart(src string, pos int) bool {
	c := src[pos]
	return c >= '0' && c <= '9' || c == '.' && pos+1 < len(src) && isDigit(src[pos+1])
}

// number reads the numeric literal at src[pos:] as the parser does: its
// value, its end, and ok=false when it does not fit.
func number(src string, pos int) (types.Value, int, bool) {
	end := numberEnd(src, pos)
	text := src[pos:end]
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		return types.NewFloat(f), end, err == nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	return types.NewInt(i), end, err == nil
}

// negate is the parser's fold of a unary minus into a numeric literal.
func negate(v types.Value) types.Value {
	if v.K == types.KindFloat {
		return types.NewFloat(-v.Float())
	}
	return types.NewInt(-v.Int())
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
