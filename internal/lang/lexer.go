package lang

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer turns source text into tokens. Comments run from "--" to end of
// line, as in several of the paper's languages.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) peekRune() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *lexer) advance(w int, r rune) {
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for {
		r, w := l.peekRune()
		if w == 0 {
			return
		}
		if unicode.IsSpace(r) {
			l.advance(w, r)
			continue
		}
		if r == '-' && strings.HasPrefix(l.src[l.pos:], "--") {
			for {
				r, w := l.peekRune()
				if w == 0 || r == '\n' {
					break
				}
				l.advance(w, r)
			}
			continue
		}
		return
	}
}

// next returns the next token.
func (l *lexer) next() (Token, *Error) {
	l.skipSpaceAndComments()
	pos, off := Pos{Line: l.line, Col: l.col}, l.pos
	r, w := l.peekRune()
	if w == 0 {
		return Token{Kind: TEOF, Pos: pos, Off: off}, nil
	}

	switch {
	case unicode.IsLetter(r) || r == '_':
		for {
			r, w := l.peekRune()
			if w == 0 || (!unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_') {
				break
			}
			l.advance(w, r)
		}
		return Token{Kind: TIdent, Lit: l.src[off:l.pos], Pos: pos, Off: off}, nil

	case unicode.IsDigit(r):
		isFloat := false
		for {
			r, w := l.peekRune()
			if w == 0 {
				break
			}
			if r == '.' && !isFloat {
				// A digit must follow for this to be a float; otherwise the
				// dot is field selection (e.g. 1.x is ill-formed anyway).
				if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
					isFloat = true
					l.advance(w, r)
					continue
				}
				break
			}
			if !unicode.IsDigit(r) {
				break
			}
			l.advance(w, r)
		}
		kind := TInt
		if isFloat {
			kind = TFloat
		}
		return Token{Kind: kind, Lit: l.src[off:l.pos], Pos: pos, Off: off}, nil

	case r == '"' || r == '\'':
		quote := r
		l.advance(w, r)
		var b strings.Builder
		for {
			r, w := l.peekRune()
			if w == 0 || r == '\n' {
				return Token{}, errAt(pos, "lex", "unterminated string")
			}
			if r == quote {
				l.advance(w, r)
				break
			}
			if r == '\\' {
				l.advance(w, r)
				e, ew := l.peekRune()
				if ew == 0 {
					return Token{}, errAt(pos, "lex", "unterminated escape")
				}
				switch e {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '"', '\'':
					b.WriteRune(e)
				default:
					return Token{}, errAt(pos, "lex", "unknown escape \\%c", e)
				}
				l.advance(ew, e)
				continue
			}
			b.WriteRune(r)
			l.advance(w, r)
		}
		return Token{Kind: TString, Lit: b.String(), Pos: pos, Off: off}, nil
	}

	two := func(kind TokenKind, lit string) (Token, *Error) {
		l.advance(1, 0)
		l.advance(1, 0)
		return Token{Kind: kind, Lit: lit, Pos: pos, Off: off}, nil
	}
	one := func(kind TokenKind, lit string) (Token, *Error) {
		l.advance(w, r)
		return Token{Kind: kind, Lit: lit, Pos: pos, Off: off}, nil
	}
	rest := l.src[l.pos:]
	switch {
	case strings.HasPrefix(rest, "=="):
		return two(TEq, "==")
	case strings.HasPrefix(rest, "!="):
		return two(TNe, "!=")
	case strings.HasPrefix(rest, "<="):
		return two(TLe, "<=")
	case strings.HasPrefix(rest, "<-"):
		// The generator arrow of comprehensions. Note `a < -b` therefore
		// needs parentheses: `a < (-b)`.
		return two(TGenArrow, "<-")
	case strings.HasPrefix(rest, ">="):
		return two(TGe, ">=")
	case strings.HasPrefix(rest, "++"):
		return two(TConcat, "++")
	case strings.HasPrefix(rest, "->"):
		return two(TArrow, "->")
	}
	switch r {
	case '(':
		return one(TLParen, "(")
	case ')':
		return one(TRParen, ")")
	case '[':
		return one(TLBrack, "[")
	case ']':
		return one(TRBrack, "]")
	case '{':
		return one(TLBrace, "{")
	case '}':
		return one(TRBrace, "}")
	case ',':
		return one(TComma, ",")
	case ';':
		return one(TSemi, ";")
	case ':':
		return one(TColon, ":")
	case '.':
		return one(TDot, ".")
	case '=':
		return one(TAssign, "=")
	case '<':
		return one(TLt, "<")
	case '>':
		return one(TGt, ">")
	case '+':
		return one(TPlus, "+")
	case '-':
		return one(TMinus, "-")
	case '*':
		return one(TStar, "*")
	case '/':
		return one(TSlash, "/")
	case '%':
		return one(TPercent, "%")
	case '|':
		return one(TBar, "|")
	}
	return Token{}, errAt(pos, "lex", "unexpected character %q", r)
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]Token, *Error) {
	l := newLexer(src)
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TEOF {
			return out, nil
		}
	}
}
