// Package lang implements a small, statically typed database programming
// language in the mould the paper advocates: Amber-style records and
// subtyping, Cardelli–Wegner bounded universal and existential
// quantification, Dynamic with coerce and typeof, generalized-relation
// operations, and all three of the paper's persistence styles (snapshot
// images are the host's concern; extern/intern give replicating
// persistence; `persistent` declarations with commit give intrinsic
// persistence, including subtype-based schema evolution at handles).
//
// The language demonstrates the paper's central claim executably: the
// database is nothing but a List[Dynamic]; the generic function
//
//	get : forall t . List[Dynamic] -> List[exists u <= t . u]
//
// is an ordinary library binding; and the class hierarchy falls out of the
// type hierarchy with no class construct in the language at all.
package lang

import "fmt"

// TokenKind enumerates lexical token kinds.
type TokenKind int

// Token kinds.
const (
	TEOF TokenKind = iota
	TIdent
	TInt
	TFloat
	TString
	// Punctuation.
	TLParen   // (
	TRParen   // )
	TLBrack   // [
	TRBrack   // ]
	TLBrace   // {
	TRBrace   // }
	TComma    // ,
	TSemi     // ;
	TColon    // :
	TDot      // .
	TAssign   // =
	TEq       // ==
	TNe       // !=
	TLt       // <
	TLe       // <=
	TGt       // >
	TGe       // >=
	TPlus     // +
	TMinus    // -
	TStar     // *
	TSlash    // /
	TPercent  // %
	TConcat   // ++
	TArrow    // ->
	TBar      // |
	TGenArrow // <-  (comprehension generator)
)

// Keywords are identifiers with reserved meaning.
var keywords = map[string]bool{
	"let": true, "rec": true, "type": true, "fun": true, "is": true,
	"if": true, "then": true, "else": true, "true": true, "false": true,
	"and": true, "or": true, "not": true, "in": true,
	"dynamic": true, "coerce": true, "to": true, "typeof": true,
	"with": true, "open": true, "as": true, "persistent": true,
	"unit": true, "forall": true, "exists": true,
	"case": true, "of": true, "end": true,
}

// Pos is a source position.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token with its literal text, position and byte
// offset in the source.
type Token struct {
	Kind TokenKind
	Lit  string
	Pos  Pos
	Off  int
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == TEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Lit)
}

// Error is a positioned language error (lexical, syntactic, type or
// runtime).
type Error struct {
	Pos   Pos
	Phase string // "lex", "parse", "type", "run"
	Msg   string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s error: %s", e.Pos, e.Phase, e.Msg)
}

func errAt(pos Pos, phase, format string, args ...any) *Error {
	return &Error{Pos: pos, Phase: phase, Msg: fmt.Sprintf(format, args...)}
}
