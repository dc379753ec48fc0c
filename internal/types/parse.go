package types

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a type from its concrete syntax, the same syntax produced by
// the String methods:
//
//	Int  Float  String  Bool  Unit  Top  Bottom  Dynamic  Type
//	{Name: String, Age: Int}              record
//	[Circle: Float, Square: Float]        variant
//	List[Int]   Set[{Name: String}]       lists and sets
//	Int -> Bool   (Int, Int) -> Int       functions
//	forall t <= {Name: String} . t        bounded universal
//	exists t <= Person . t                bounded existential
//	rec t . {Value: Int, Next: t}         recursive
//	t                                     type variable (lowercase)
//
// Quantifier bounds default to Top when the "<= Bound" part is omitted.
// Comments run from "--" to the end of the line and may appear between
// any two tokens. Parse is ParsePrefix that also requires the type to
// take the whole of src; a refusal is a *SyntaxError.
func Parse(src string) (Type, error) {
	t, end, err := ParsePrefix(src)
	if err != nil {
		return nil, err
	}
	if end < len(src) {
		return nil, &SyntaxError{Offset: end, Msg: "unexpected text after the type"}
	}
	return t, nil
}

// ParsePrefix reads the type at the start of src and returns it with the
// byte offset of whatever follows it, past any space and comments. The
// language parser reads the types in programs this way, so a type means
// the same wherever its text appears.
func ParsePrefix(src string) (Type, int, error) {
	p := &typeParser{src: src}
	p.next()
	t, err := p.parseType()
	if err != nil {
		return nil, 0, err
	}
	return t, p.off, nil
}

// MustParse is Parse but panics on error; for use in tests and fixtures.
func MustParse(src string) Type {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

// SyntaxError is a refused type: what is wrong, and the byte offset of the
// token the parser stopped at.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("types: %s at offset %d", e.Msg, e.Offset)
}

type typeToken int

const (
	tkEOF typeToken = iota
	tkIdent
	tkLBrace  // {
	tkRBrace  // }
	tkLBrack  // [
	tkRBrack  // ]
	tkLParen  // (
	tkRParen  // )
	tkComma   // ,
	tkColon   // :
	tkDot     // .
	tkArrow   // ->
	tkLessEq  // <=
	tkInvalid // anything else
)

var punct = map[byte]typeToken{
	'{': tkLBrace, '}': tkRBrace, '[': tkLBrack, ']': tkRBrack,
	'(': tkLParen, ')': tkRParen, ',': tkComma, ':': tkColon, '.': tkDot,
}

type typeParser struct {
	src string
	pos int // scan position
	off int // offset of current token
	tok typeToken
	lit string
}

// skip moves past space and "--" comments.
func (p *typeParser) skip() {
	for p.pos < len(p.src) {
		if strings.HasPrefix(p.src[p.pos:], "--") {
			if nl := strings.IndexByte(p.src[p.pos:], '\n'); nl >= 0 {
				p.pos += nl
			} else {
				p.pos = len(p.src)
			}
			continue
		}
		r, w := utf8.DecodeRuneInString(p.src[p.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += w
	}
}

func (p *typeParser) next() {
	p.skip()
	p.off = p.pos
	if p.pos >= len(p.src) {
		p.tok, p.lit = tkEOF, ""
		return
	}
	r, w := utf8.DecodeRuneInString(p.src[p.pos:])
	if unicode.IsLetter(r) || r == '_' {
		for p.pos < len(p.src) {
			r, w := utf8.DecodeRuneInString(p.src[p.pos:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
				break
			}
			p.pos += w
		}
		p.tok, p.lit = tkIdent, p.src[p.off:p.pos]
		return
	}
	rest := p.src[p.pos:]
	switch tok, ok := punct[rest[0]]; {
	case strings.HasPrefix(rest, "->"):
		p.tok, p.pos = tkArrow, p.pos+2
	case strings.HasPrefix(rest, "<="):
		p.tok, p.pos = tkLessEq, p.pos+2
	case ok:
		p.tok, p.pos = tok, p.pos+1
	default:
		p.tok, p.pos = tkInvalid, p.pos+w
	}
	p.lit = p.src[p.off:p.pos]
}

// fail refuses the type at the current token.
func (p *typeParser) fail(format string, args ...any) error {
	return &SyntaxError{Offset: p.off, Msg: fmt.Sprintf(format, args...)}
}

// found names the current token for an error message.
func (p *typeParser) found() string {
	if p.tok == tkEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", p.lit)
}

func (p *typeParser) expect(tok typeToken, what string) error {
	if p.tok != tok {
		return p.fail("expected %s, found %s", what, p.found())
	}
	p.next()
	return nil
}

// binder reads the variable after forall, exists or rec.
func (p *typeParser) binder(kw string) (string, error) {
	if p.tok != tkIdent {
		return "", p.fail("expected a variable after %q, found %s", kw, p.found())
	}
	name := p.lit
	p.next()
	return name, nil
}

// parseType handles quantifiers, recursion and function arrows.
func (p *typeParser) parseType() (Type, error) {
	if p.tok == tkIdent {
		switch kw := p.lit; kw {
		case "forall", "exists":
			p.next()
			param, err := p.binder(kw)
			if err != nil {
				return nil, err
			}
			bound := Type(Top)
			if p.tok == tkLessEq {
				p.next()
				if bound, err = p.parseType(); err != nil {
					return nil, err
				}
			}
			if err := p.expect(tkDot, "'.'"); err != nil {
				return nil, err
			}
			body, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if kw == "forall" {
				return NewForAll(param, bound, body), nil
			}
			return NewExists(param, bound, body), nil
		case "rec":
			p.next()
			param, err := p.binder(kw)
			if err != nil {
				return nil, err
			}
			if err := p.expect(tkDot, "'.'"); err != nil {
				return nil, err
			}
			body, err := p.parseType()
			if err != nil {
				return nil, err
			}
			return NewRec(param, body), nil
		}
	}
	// A primary, or a parenthesized parameter list, possibly followed by ->.
	parts, single, err := p.parsePrimaryGroup()
	if err != nil {
		return nil, err
	}
	if p.tok == tkArrow {
		p.next()
		result, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return NewFunc(parts, result), nil
	}
	if !single {
		return nil, p.fail("a parameter list must be followed by \"->\"")
	}
	return parts[0], nil
}

// parsePrimaryGroup parses either one primary type, or a parenthesized
// comma-separated group that may serve as a function parameter list. single
// reports whether the group is usable as a standalone type.
func (p *typeParser) parsePrimaryGroup() (parts []Type, single bool, err error) {
	if p.tok == tkLParen {
		p.next()
		if p.tok == tkRParen { // () -> T : no parameters
			p.next()
			return nil, false, nil
		}
		for {
			t, err := p.parseType()
			if err != nil {
				return nil, false, err
			}
			parts = append(parts, t)
			if p.tok != tkComma {
				break
			}
			p.next()
		}
		if err := p.expect(tkRParen, "')'"); err != nil {
			return nil, false, err
		}
		return parts, len(parts) == 1, nil
	}
	t, err := p.parsePrimary()
	if err != nil {
		return nil, false, err
	}
	return []Type{t}, true, nil
}

var basicNames = map[string]Type{
	"Int": Int, "Float": Float, "String": String, "Bool": Bool, "Unit": Unit,
	"Top": Top, "Bottom": Bottom, "Dynamic": Dynamic, "Type": TypeRep,
}

func (p *typeParser) parsePrimary() (Type, error) {
	switch p.tok {
	case tkIdent:
		name := p.lit
		p.next()
		if b, ok := basicNames[name]; ok {
			return b, nil
		}
		if name != "List" && name != "Set" {
			return NewVar(name), nil
		}
		if err := p.expect(tkLBrack, "'['"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tkRBrack, "']'"); err != nil {
			return nil, err
		}
		if name == "List" {
			return NewList(elem), nil
		}
		return NewSet(elem), nil
	case tkLBrace:
		p.next()
		fs, err := p.parseFields(tkRBrace, "'}'", "record label")
		if err != nil {
			return nil, err
		}
		return NewRecord(fs...), nil
	case tkLBrack:
		p.next()
		if p.tok == tkRBrack {
			return nil, p.fail("a variant needs at least one tag")
		}
		fs, err := p.parseFields(tkRBrack, "']'", "variant tag")
		if err != nil {
			return nil, err
		}
		return NewVariant(fs...), nil
	default:
		return nil, p.fail("unexpected %s", p.found())
	}
}

// parseFields reads "label: T, ..." up to closer; the opener is already
// consumed. A label given twice is refused at its second occurrence, found
// by sorting, so a wide record costs n log n, not n².
func (p *typeParser) parseFields(closer typeToken, closeWhat, what string) ([]Field, error) {
	var fs []Field
	var offs []int
	for p.tok != closer {
		if len(fs) > 0 {
			if err := p.expect(tkComma, "',' or "+closeWhat); err != nil {
				return nil, err
			}
		}
		if p.tok != tkIdent {
			return nil, p.fail("expected a %s, found %s", what, p.found())
		}
		label, off := p.lit, p.off
		p.next()
		if err := p.expect(tkColon, "':'"); err != nil {
			return nil, err
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fs = append(fs, Field{Label: label, Type: t})
		offs = append(offs, off)
	}
	if _, dup, ok := sortFields(fs); ok {
		seen := false
		for i, f := range fs {
			if f.Label == dup && seen {
				return nil, &SyntaxError{Offset: offs[i], Msg: fmt.Sprintf("duplicate %s %q", what, dup)}
			}
			seen = seen || f.Label == dup
		}
	}
	p.next()
	return fs, nil
}
