package lang

import (
	"slices"
	"strconv"

	"dbpl/internal/types"
)

// parser is a recursive-descent parser over the token stream. Type
// abbreviations (type N = T) are expanded during parsing; a self-reference
// closes into a recursive type.
type parser struct {
	src     string
	toks    []Token
	pos     int
	abbrevs map[string]types.Type
}

// Parse parses a program. abbrevs carries type abbreviations in scope; the
// map is extended by type declarations in the source (so a REPL can retain
// them between inputs).
func Parse(src string, abbrevs map[string]types.Type) ([]Decl, error) {
	toks, lerr := lexAll(src)
	if lerr != nil {
		return nil, lerr
	}
	if abbrevs == nil {
		abbrevs = map[string]types.Type{}
	}
	p := &parser{src: src, toks: toks, abbrevs: abbrevs}
	var decls []Decl
	for !p.at(TEOF) {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		decls = append(decls, d)
		// Declarations are separated by semicolons; the final one may omit
		// it.
		if p.at(TSemi) {
			p.advance()
		} else if !p.at(TEOF) {
			return nil, errAt(p.cur().Pos, "parse", "expected ';' or end of input, found %s", p.cur())
		}
	}
	return decls, nil
}

func (p *parser) cur() Token          { return p.toks[p.pos] }
func (p *parser) advance()            { p.pos++ }
func (p *parser) at(k TokenKind) bool { return p.cur().Kind == k }

// atKw reports whether the current token is the given keyword.
func (p *parser) atKw(kw string) bool {
	return p.cur().Kind == TIdent && p.cur().Lit == kw
}

func (p *parser) expect(k TokenKind, what string) (Token, error) {
	if !p.at(k) {
		return Token{}, errAt(p.cur().Pos, "parse", "expected %s, found %s", what, p.cur())
	}
	t := p.cur()
	p.advance()
	return t, nil
}

func (p *parser) expectKw(kw string) error {
	if !p.atKw(kw) {
		return errAt(p.cur().Pos, "parse", "expected %q, found %s", kw, p.cur())
	}
	p.advance()
	return nil
}

func (p *parser) ident(what string) (Token, error) {
	t, err := p.expect(TIdent, what)
	if err != nil {
		return Token{}, err
	}
	if keywords[t.Lit] {
		return Token{}, errAt(t.Pos, "parse", "%q is a keyword and cannot be %s", t.Lit, what)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

func (p *parser) parseDecl() (Decl, error) {
	switch {
	case p.atKw("let") && p.peekIsLetDecl():
		return p.parseLetDecl()
	case p.atKw("type"):
		return p.parseTypeDecl()
	case p.atKw("persistent"):
		return p.parsePersistentDecl()
	default:
		pos := p.cur().Pos
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &DExpr{Pos: pos, X: e}, nil
	}
}

// peekIsLetDecl distinguishes the declaration `let x = e;` from the
// expression `let x = e in b`: scan forward for `in` at the same bracket
// depth before the terminating semicolon. A `let` at the top of a
// declaration with a matching `in` is an expression.
func (p *parser) peekIsLetDecl() bool {
	depth := 0
	lets := 1
	for i := p.pos + 1; i < len(p.toks); i++ {
		t := p.toks[i]
		switch t.Kind {
		case TLParen, TLBrack, TLBrace:
			depth++
		case TRParen, TRBrack, TRBrace:
			depth--
		case TSemi:
			if depth == 0 {
				return true
			}
		case TIdent:
			if depth == 0 {
				switch t.Lit {
				case "let":
					lets++
				case "in":
					lets--
					if lets == 0 {
						return false
					}
				}
			}
		case TEOF:
			return true
		}
	}
	return true
}

func (p *parser) parseLetDecl() (Decl, error) {
	pos := p.cur().Pos
	p.advance() // let
	rec := false
	if p.atKw("rec") {
		rec = true
		p.advance()
	}
	name, err := p.ident("a binding name")
	if err != nil {
		return nil, err
	}
	var ann types.Type
	if p.at(TColon) {
		p.advance()
		if ann, err = p.parseType(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TAssign, "'='"); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if rec {
		fn, ok := init.(*EFun)
		if !ok {
			return nil, errAt(pos, "parse", "let rec requires a fun literal")
		}
		if fn.Result == nil {
			return nil, errAt(fn.Pos, "parse", "let rec requires the fun to declare its result type")
		}
		fn.SelfName = name.Lit
	}
	return &DLet{Pos: pos, Rec: rec, Name: name.Lit, Ann: ann, Init: init}, nil
}

func (p *parser) parseTypeDecl() (Decl, error) {
	pos := p.cur().Pos
	p.advance() // type
	name, err := p.ident("a type name")
	if err != nil {
		return nil, err
	}
	if name.Lit[0] < 'A' || name.Lit[0] > 'Z' {
		return nil, errAt(name.Pos, "parse", "type names must start with an uppercase letter")
	}
	if _, dup := p.abbrevs[name.Lit]; dup || baseTypes[name.Lit] {
		return nil, errAt(name.Pos, "parse", "type %q is already defined", name.Lit)
	}
	if _, err := p.expect(TAssign, "'='"); err != nil {
		return nil, err
	}
	// Allow self-reference: N stands for a variable while parsing the body.
	p.abbrevs[name.Lit] = types.NewVar(name.Lit)
	t, err := p.parseType()
	if err != nil {
		delete(p.abbrevs, name.Lit)
		return nil, err
	}
	if types.FreeVars(t)[name.Lit] {
		t = types.NewRec(name.Lit, t)
	}
	p.abbrevs[name.Lit] = t
	return &DType{Pos: pos, Name: name.Lit, Type: t}, nil
}

func (p *parser) parsePersistentDecl() (Decl, error) {
	pos := p.cur().Pos
	p.advance() // persistent
	name, err := p.ident("a handle name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TColon, "':' (persistent bindings must declare their type)"); err != nil {
		return nil, err
	}
	ann, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TAssign, "'='"); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &DPersistent{Pos: pos, Name: name.Lit, Ann: ann, Init: init}, nil
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() (Expr, error) {
	switch {
	case p.atKw("fun"):
		return p.parseFun()
	case p.atKw("if"):
		return p.parseIf()
	case p.atKw("let"):
		return p.parseLetIn()
	case p.atKw("open"):
		return p.parseOpen()
	case p.atKw("case"):
		return p.parseCase()
	default:
		return p.parseOr()
	}
}

// parseCase parses case e of A(x) is e1 | B(y) is e2 end.
func (p *parser) parseCase() (Expr, error) {
	pos := p.cur().Pos
	p.advance() // case
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("of"); err != nil {
		return nil, err
	}
	var arms []CaseArm
	seen := map[string]bool{}
	for {
		label, err := p.expect(TIdent, "a variant tag")
		if err != nil {
			return nil, err
		}
		if keywords[label.Lit] {
			return nil, errAt(label.Pos, "parse", "%q is a keyword and cannot be a tag", label.Lit)
		}
		if seen[label.Lit] {
			return nil, errAt(label.Pos, "parse", "duplicate case arm for tag %q", label.Lit)
		}
		seen[label.Lit] = true
		if _, err := p.expect(TLParen, "'('"); err != nil {
			return nil, err
		}
		v, err := p.ident("a binding name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TRParen, "')'"); err != nil {
			return nil, err
		}
		if err := p.expectKw("is"); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		arms = append(arms, CaseArm{Label: label.Lit, Var: v.Lit, Body: body})
		if p.at(TBar) {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return &ECase{Pos: pos, X: x, Arms: arms}, nil
}

func (p *parser) parseFun() (Expr, error) {
	pos := p.cur().Pos
	p.advance() // fun
	fn := &EFun{Pos: pos}
	if p.at(TLBrack) {
		p.advance()
		for {
			name, err := p.ident("a type parameter")
			if err != nil {
				return nil, err
			}
			// A capitalized name in the signature would be read as a type
			// name, not as the parameter.
			if name.Lit[0] >= 'A' && name.Lit[0] <= 'Z' {
				return nil, errAt(name.Pos, "parse", "type parameters must start with a lowercase letter")
			}
			bound := types.Type(types.Top)
			if p.at(TLe) {
				p.advance()
				if bound, err = p.parseType(); err != nil {
					return nil, err
				}
			}
			fn.TypeParams = append(fn.TypeParams, TypeParam{Name: name.Lit, Bound: bound})
			if !p.at(TComma) {
				break
			}
			p.advance()
		}
		if _, err := p.expect(TRBrack, "']'"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TLParen, "'('"); err != nil {
		return nil, err
	}
	if !p.at(TRParen) {
		for {
			name, err := p.ident("a parameter name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TColon, "':' (parameters must be typed)"); err != nil {
				return nil, err
			}
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, Param{Name: name.Lit, Type: pt})
			if !p.at(TComma) {
				break
			}
			p.advance()
		}
	}
	if _, err := p.expect(TRParen, "')'"); err != nil {
		return nil, err
	}
	if p.at(TColon) {
		p.advance()
		rt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn.Result = rt
	}
	if err := p.expectKw("is"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseIf() (Expr, error) {
	pos := p.cur().Pos
	p.advance() // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	thn, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &EIf{Pos: pos, Cond: cond, Then: thn, Else: els}, nil
}

func (p *parser) parseLetIn() (Expr, error) {
	pos := p.cur().Pos
	p.advance() // let
	rec := false
	if p.atKw("rec") {
		rec = true
		p.advance()
	}
	name, err := p.ident("a binding name")
	if err != nil {
		return nil, err
	}
	var ann types.Type
	if p.at(TColon) {
		p.advance()
		if ann, err = p.parseType(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TAssign, "'='"); err != nil {
		return nil, err
	}
	init, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if rec {
		fn, ok := init.(*EFun)
		if !ok {
			return nil, errAt(pos, "parse", "let rec requires a fun literal")
		}
		if fn.Result == nil {
			return nil, errAt(fn.Pos, "parse", "let rec requires the fun to declare its result type")
		}
		fn.SelfName = name.Lit
	}
	if err := p.expectKw("in"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ELetIn{Pos: pos, Name: name.Lit, Ann: ann, Init: init, Body: body}, nil
}

func (p *parser) parseOpen() (Expr, error) {
	pos := p.cur().Pos
	p.advance() // open
	x, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TLParen, "'('"); err != nil {
		return nil, err
	}
	tv, err := p.ident("a type variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TComma, "','"); err != nil {
		return nil, err
	}
	v, err := p.ident("a variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TRParen, "')'"); err != nil {
		return nil, err
	}
	if err := p.expectKw("in"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &EOpen{Pos: pos, X: x, TVar: tv.Lit, Var: v.Lit, Body: body}, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKw("or") {
		pos := p.cur().Pos
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Pos: pos, Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.atKw("and") {
		pos := p.cur().Pos
		p.advance()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Pos: pos, Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[TokenKind]BinOp{
	TEq: OpEq, TNe: OpNe, TLt: OpLt, TLe: OpLe, TGt: OpGt, TGe: OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.cur().Kind]; ok {
		pos := p.cur().Pos
		p.advance()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &EBinary{Pos: pos, Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TPlus:
			op = OpAdd
		case TMinus:
			op = OpSub
		case TConcat:
			op = OpConcat
		default:
			return l, nil
		}
		pos := p.cur().Pos
		p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Pos: pos, Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TStar:
			op = OpMul
		case TSlash:
			op = OpDiv
		case TPercent:
			op = OpMod
		default:
			return l, nil
		}
		pos := p.cur().Pos
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Pos: pos, Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	pos := p.cur().Pos
	switch {
	case p.atKw("not"):
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &EUnary{Pos: pos, Op: OpNot, X: x}, nil
	case p.at(TMinus):
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &EUnary{Pos: pos, Op: OpNeg, X: x}, nil
	case p.atKw("dynamic"):
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &EDynamic{Pos: pos, X: x}, nil
	case p.atKw("typeof"):
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ETypeOf{Pos: pos, X: x}, nil
	case p.atKw("coerce"):
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("to"); err != nil {
			return nil, err
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return &ECoerce{Pos: pos, X: x, T: t}, nil
	default:
		return p.parsePostfix()
	}
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TDot):
			pos := p.cur().Pos
			p.advance()
			label, err := p.expect(TIdent, "a field label")
			if err != nil {
				return nil, err
			}
			x = &EField{Pos: pos, X: x, Label: label.Lit}
		case p.at(TLParen):
			pos := p.cur().Pos
			p.advance()
			var args []Expr
			if !p.at(TRParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.at(TComma) {
						break
					}
					p.advance()
				}
			}
			if _, err := p.expect(TRParen, "')'"); err != nil {
				return nil, err
			}
			x = &ECall{Pos: pos, Fn: x, Args: args}
		case p.at(TLBrack):
			pos := p.cur().Pos
			p.advance()
			var ts []types.Type
			for {
				t, err := p.parseType()
				if err != nil {
					return nil, err
				}
				ts = append(ts, t)
				if !p.at(TComma) {
					break
				}
				p.advance()
			}
			if _, err := p.expect(TRBrack, "']'"); err != nil {
				return nil, err
			}
			x = &ETypeApp{Pos: pos, Fn: x, Types: ts}
		case p.atKw("with"):
			pos := p.cur().Pos
			p.advance()
			rec, err := p.parseRecordLit()
			if err != nil {
				return nil, err
			}
			x = &EWith{Pos: pos, X: x, R: rec}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TInt:
		p.advance()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			return nil, errAt(t.Pos, "parse", "bad integer literal %q", t.Lit)
		}
		return &EInt{Pos: t.Pos, V: v}, nil
	case TFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			return nil, errAt(t.Pos, "parse", "bad float literal %q", t.Lit)
		}
		return &EFloat{Pos: t.Pos, V: v}, nil
	case TString:
		p.advance()
		return &EString{Pos: t.Pos, V: t.Lit}, nil
	case TIdent:
		switch t.Lit {
		case "true", "false":
			p.advance()
			return &EBool{Pos: t.Pos, V: t.Lit == "true"}, nil
		case "unit":
			p.advance()
			return &EUnit{Pos: t.Pos}, nil
		case "fun", "if", "let", "open":
			// Allowed in expression position inside parentheses; direct
			// nesting is handled by parseExpr, so reaching here means the
			// construct appeared where only an operand may.
			return p.parseExpr()
		}
		if keywords[t.Lit] {
			return nil, errAt(t.Pos, "parse", "unexpected keyword %q", t.Lit)
		}
		p.advance()
		return &EVar{Pos: t.Pos, Name: t.Lit}, nil
	case TLParen:
		p.advance()
		if p.at(TRParen) { // () is unit
			p.advance()
			return &EUnit{Pos: t.Pos}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case TLt:
		// Variant injection: <Label = expr>.
		p.advance()
		label, err := p.ident("a variant tag")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TAssign, "'='"); err != nil {
			return nil, err
		}
		// The payload binds tighter than comparisons so the closing '>' is
		// unambiguous; parenthesize a comparison payload.
		var x Expr
		var err2 error
		if p.atKw("fun") || p.atKw("if") || p.atKw("let") || p.atKw("open") || p.atKw("case") {
			x, err2 = p.parseExpr()
		} else {
			x, err2 = p.parseAdd()
		}
		if err2 != nil {
			return nil, err2
		}
		if _, err := p.expect(TGt, "'>'"); err != nil {
			return nil, err
		}
		return &EVariant{Pos: t.Pos, Label: label.Lit, X: x}, nil
	case TLBrace:
		return p.parseRecordLit()
	case TLBrack:
		p.advance()
		lst := &EList{Pos: t.Pos}
		if !p.at(TRBrack) {
			first, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			// [ head | quals ] is a comprehension; otherwise a list literal.
			if p.at(TBar) {
				p.advance()
				return p.parseComprTail(t.Pos, first)
			}
			lst.Elems = append(lst.Elems, first)
			for p.at(TComma) {
				p.advance()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				lst.Elems = append(lst.Elems, e)
			}
		}
		if _, err := p.expect(TRBrack, "']'"); err != nil {
			return nil, err
		}
		return lst, nil
	default:
		return nil, errAt(t.Pos, "parse", "unexpected %s", t)
	}
}

// parseComprTail parses the qualifiers of [ head | x <- xs, guard, ... ].
func (p *parser) parseComprTail(pos Pos, head Expr) (Expr, error) {
	compr := &ECompr{Pos: pos, Head: head}
	for {
		// A generator is IDENT <- expr; anything else is a guard.
		if p.at(TIdent) && !keywords[p.cur().Lit] &&
			p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TGenArrow {
			name := p.cur().Lit
			p.advance() // ident
			p.advance() // <-
			src, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			compr.Quals = append(compr.Quals, Qualifier{Var: name, Source: src})
		} else {
			guard, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			compr.Quals = append(compr.Quals, Qualifier{Source: guard})
		}
		if p.at(TComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(TRBrack, "']'"); err != nil {
		return nil, err
	}
	if len(compr.Quals) == 0 {
		return nil, errAt(pos, "parse", "a comprehension needs at least one qualifier")
	}
	return compr, nil
}

func (p *parser) parseRecordLit() (*ERecord, error) {
	t, err := p.expect(TLBrace, "'{'")
	if err != nil {
		return nil, err
	}
	rec := &ERecord{Pos: t.Pos}
	seen := map[string]bool{}
	if !p.at(TRBrace) {
		for {
			label, err := p.ident("a field label")
			if err != nil {
				return nil, err
			}
			if seen[label.Lit] {
				return nil, errAt(label.Pos, "parse", "duplicate field %q", label.Lit)
			}
			seen[label.Lit] = true
			if _, err := p.expect(TAssign, "'='"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rec.Fields = append(rec.Fields, FieldExpr{Label: label.Lit, X: e})
			if !p.at(TComma) {
				break
			}
			p.advance()
		}
	}
	if _, err := p.expect(TRBrace, "'}'"); err != nil {
		return nil, err
	}
	return rec, nil
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

// baseTypes are the names the type grammar itself defines.
var baseTypes = map[string]bool{
	"Int": true, "Float": true, "String": true, "Bool": true, "Unit": true,
	"Top": true, "Bottom": true, "Dynamic": true, "Type": true,
	"List": true, "Set": true,
}

// parseType reads the type that starts at the current token with the
// types package's grammar, the one every reader of a type shares. On the
// tokens it took, the language then refuses keywords and capitalized
// names that are neither base types nor abbreviations (labels and tags,
// an identifier before ':', are exempt), and expands the abbreviations.
func (p *parser) parseType() (types.Type, error) {
	start, off := p.pos, p.cur().Off
	t, n, err := types.ParsePrefix(p.src[off:])
	if err != nil {
		se := err.(*types.SyntaxError) // ParsePrefix refuses with no other error
		return nil, errAt(p.posAt(off+se.Offset), "parse", "%s", se.Msg)
	}
	for p.cur().Off < off+n {
		p.advance()
	}
	quantified := false // the token before was forall, exists or rec
	for i := start; i < p.pos; i++ {
		tok, binder := p.toks[i], quantified
		quantified = false
		if tok.Kind != TIdent || i+1 < p.pos && p.toks[i+1].Kind == TColon {
			continue
		}
		switch name := tok.Lit; {
		case !binder && (name == "forall" || name == "exists" || name == "rec"):
			quantified = true
		case keywords[name]:
			return nil, errAt(tok.Pos, "parse", "unexpected keyword %q in type", name)
		case name[0] >= 'A' && name[0] <= 'Z' && !baseTypes[name] && p.abbrevs[name] == nil:
			return nil, errAt(tok.Pos, "parse", "unknown type name %q", name)
		}
	}
	for v := range types.FreeVars(t) {
		if abbr := p.abbrevs[v]; abbr != nil {
			t = types.Substitute(t, v, abbr)
		}
	}
	return t, nil
}

// posAt is the position of the token that starts at byte offset off.
func (p *parser) posAt(off int) Pos {
	i, _ := slices.BinarySearchFunc(p.toks, off, func(t Token, off int) int { return t.Off - off })
	return p.toks[i].Pos
}
